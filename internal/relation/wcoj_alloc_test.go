package relation_test

import (
	"runtime"
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/workload"
)

// TestJoinSizeAllocatesLinearlyOnAGMInstances guards the count-only
// kernel against a return of materializing joins: on the AGM-tight
// instance of a cyclic query the output is Θ(N^ρ*), far above the
// input, yet counting it may allocate only a small multiple of the
// input arenas (sort permutations and one trie copy per relation).
func TestJoinSizeAllocatesLinearlyOnAGMInstances(t *testing.T) {
	for _, c := range []struct {
		q    *hypergraph.Query
		n    int
		want int64
	}{
		{hypergraph.TriangleJoin(), 4096, 64 * 64 * 64},
		{hypergraph.SquareJoin(), 512, 8 * 8 * 8 * 8 * 8 * 8},
	} {
		in, err := workload.AGMWorstCase(c.q, c.n)
		if err != nil {
			t.Fatal(err)
		}
		var input int64
		for _, r := range in.Relations {
			input += 8 * int64(len(r.Data()))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := in.JoinSize()
		runtime.ReadMemStats(&after)
		if got != c.want {
			t.Fatalf("%s: JoinSize = %d, want %d", c.q.Name(), got, c.want)
		}
		alloc := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%s: input %d B, JoinSize allocated %d B (%.2fx), output %d tuples",
			c.q.Name(), input, alloc, float64(alloc)/float64(input), got)
		if limit := 4*input + 64<<10; alloc > limit {
			t.Errorf("%s: JoinSize allocated %d B on %d B of input (limit %d B)",
				c.q.Name(), alloc, input, limit)
		}
	}
}
