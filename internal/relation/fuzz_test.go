package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"coverpack/internal/hypergraph"
)

// FuzzTupleKeyRoundTrip checks that the fixed-width key encoding used by
// every hash exchange is invertible: Key followed by DecodeKey must
// reproduce the projected values exactly, for any tuple content
// (including negative values, which round-trip through uint64).
func FuzzTupleKeyRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 2, 3}) // trailing partial value is dropped
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		tup := make(Tuple, n)
		for i := 0; i < n; i++ {
			tup[i] = Value(binary.BigEndian.Uint64(data[8*i : 8*i+8]))
		}
		pos := make([]int, n)
		for i := range pos {
			pos[i] = i
		}
		key := Key(tup, pos)
		if len(key) != 8*n {
			t.Fatalf("key length %d for %d values", len(key), n)
		}
		vals, ok := DecodeKey(key)
		if !ok {
			t.Fatalf("DecodeKey rejected a Key-produced string of length %d", len(key))
		}
		if len(vals) != n {
			t.Fatalf("decoded %d values, want %d", len(vals), n)
		}
		for i := range vals {
			if vals[i] != tup[i] {
				t.Fatalf("value %d: decoded %d, want %d", i, vals[i], tup[i])
			}
		}
		if n > 0 {
			if _, ok := DecodeKey(key[:len(key)-1]); ok {
				t.Fatal("truncated key should be rejected")
			}
		}
	})
}

// FuzzGenericJoinCount decodes the input into up to four relations of
// arity at most 3 over at most 6 attributes, with four distinct values
// that include both int64 extremes, and checks the worst-case-optimal kernel against brute force, in
// counting and in emitting mode. Missing input bytes read as zero.
func FuzzGenericJoinCount(f *testing.F) {
	f.Add([]byte{})
	// Bytes: edge count, then (attribute mask, row count) per edge, then
	// the values row by row.
	f.Add([]byte{2, 3, 2, 6, 2, 5, 2, 0, 1, 1, 2, 1, 2, 2, 2, 0, 2, 1, 2}) // triangle
	f.Add([]byte{1, 3, 2, 12, 2, 0, 1, 2, 3, 1, 1, 2, 0})                  // two disjoint edges
	f.Add([]byte{1, 0, 3, 7, 2, 0, 1, 2, 3, 2, 1})                         // 0-ary edge
	f.Add([]byte{1, 3, 1, 3, 1, 3, 2, 3, 2})                               // MaxInt64 on a shared variable
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		q := hypergraph.NewQuery("fuzz")
		var rows []int
		for e, edges := 0, 1+next()%4; e < edges; e++ {
			var attrs []int
			for mask, a := next()%64, 0; a < 6 && len(attrs) < 3; a++ {
				if mask&(1<<a) != 0 {
					attrs = append(attrs, a)
				}
			}
			q.AddEdgeVars(fmt.Sprintf("R%d", e), hypergraph.NewVarSet(attrs...))
			rows = append(rows, next()%9)
		}
		in := NewInstance(q)
		for e, r := range in.Relations {
			t := make(Tuple, r.Schema().Len())
			for i := 0; i < rows[e]; i++ {
				for j := range t {
					t[j] = []Value{math.MinInt64, -1, 0, math.MaxInt64}[next()%4]
				}
				r.Add(t)
			}
		}
		want := bruteJoin(in)
		if got := countGeneric(in.Relations); got != int64(want.Len()) {
			t.Fatalf("%v: countGeneric = %d, brute force %d", q, got, want.Len())
		}
		if got := in.Join(); !got.Equal(want) {
			t.Fatalf("%v: Join has %d rows, brute force %d", q, got.Len(), want.Len())
		}
	})
}
