package relation

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"coverpack/internal/hashtab"
)

// goForker is the test stand-in for the engine's fork: it really runs
// tasks on w goroutines (claimed off a shared counter, so placement is
// nondeterministic — exactly the adversary the byte-identity contract
// must survive).
type goForker struct{ w int }

func (f goForker) Workers() int { return f.w }

func (f goForker) Fork(n int, fn func(i int)) {
	p := f.w
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < p; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// forkerCounts is the worker-count sweep every kernel equivalence test
// runs: sequential refusal (1), fewer/more workers than blocks, and a
// deliberately oversubscribed count.
var forkerCounts = []int{1, 2, 3, 8}

func TestSortByParMatchesSortBy(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(23))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(3)
		schema := NewSchema(identityPositions(arity)...)
		doms := []int64{3, 1000, 1 << 40}
		r := randomRel(rng, schema, ParCutoff+rng.Intn(4000), doms[rng.Intn(len(doms))])
		pos := rng.Perm(arity)[:1+rng.Intn(arity)]
		want := r.Clone()
		want.SortBy(pos)
		for _, w := range forkerCounts {
			got := r.Clone()
			got.SortByPar(pos, goForker{w})
			if !slices.Equal(got.data, want.data) {
				t.Logf("seed %d workers %d: SortByPar arena differs", seed, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSortByParSkipsSortedInput(t *testing.T) {
	r := New(NewSchema(0))
	for i := 0; i < ParCutoff+100; i++ {
		r.AddValues(int64(i))
	}
	ver := r.Version()
	r.SortByPar([]int{0}, goForker{4})
	if got := r.Version(); got != ver {
		t.Fatalf("sorted input re-sorted on parallel path: version %d -> %d", ver, got)
	}
}

func TestMergeRunsParMatchesMergeRuns(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(29))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := NewSchema(0, 1)
		pos := []int{0}
		k := 2 + rng.Intn(6)
		r := New(schema)
		runLens := make([]int, k)
		idx := int64(0)
		for i := range runLens {
			n := rng.Intn(ParCutoff / 2 * 3)
			run := New(schema)
			for j := 0; j < n; j++ {
				run.AddValues(rng.Int63n(40)-20, idx) // payload pins stability
				idx++
			}
			run.SortBy(pos)
			runLens[i] = run.Len()
			r.Append(run)
		}
		if r.Len() < ParCutoff {
			return true // sub-cutoff draws delegate trivially
		}
		want := r.MergeRuns(runLens, pos)
		for _, w := range forkerCounts {
			got := r.MergeRunsPar(runLens, pos, goForker{w})
			if !slices.Equal(got.data, want.data) || got.Len() != want.Len() {
				t.Logf("seed %d workers %d: MergeRunsPar differs", seed, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDedupParMatchesDedup(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(31))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(3)
		schema := NewSchema(identityPositions(arity)...)
		// Small domains force heavy duplication; large ones almost none.
		doms := []int64{2, 30, 1 << 30}
		r := randomRel(rng, schema, ParCutoff+rng.Intn(4000), doms[rng.Intn(len(doms))])
		want := r.Dedup()
		for _, w := range forkerCounts {
			got := r.DedupPar(goForker{w})
			if !slices.Equal(got.data, want.data) || got.Len() != want.Len() {
				t.Logf("seed %d workers %d: DedupPar differs", seed, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSemiJoinParMatchesSemiJoin(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(37))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, NewSchema(0, 1), ParCutoff+rng.Intn(4000), 50)
		s := randomRel(rng, NewSchema(1, 2), 1+rng.Intn(2000), 50)
		want := r.SemiJoin(s)
		for _, w := range forkerCounts {
			got := r.SemiJoinPar(s, goForker{w})
			if !slices.Equal(got.data, want.data) || got.Len() != want.Len() {
				t.Logf("seed %d workers %d: SemiJoinPar differs", seed, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestJoinParMatchesJoin(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(43))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Skewed key domains give long chains on some keys; either side
		// may be the build side depending on the draw.
		r := randomRel(rng, NewSchema(0, 1), ParCutoff+rng.Intn(3000), 40)
		s := randomRel(rng, NewSchema(1, 2), ParCutoff+rng.Intn(3000), 40)
		want := r.Join(s)
		for _, w := range forkerCounts {
			got := r.JoinPar(s, goForker{w})
			if !slices.Equal(got.data, want.data) || got.Len() != want.Len() {
				t.Logf("seed %d workers %d: JoinPar differs", seed, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestJoinParCartesianFallsBack(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(1)), NewSchema(0), ParCutoff+10, 5)
	s := randomRel(rand.New(rand.NewSource(2)), NewSchema(1), 3, 5)
	want := r.Join(s)
	got := r.JoinPar(s, goForker{4})
	if !slices.Equal(got.data, want.data) {
		t.Fatal("Cartesian JoinPar differs from Join")
	}
}

func TestAggregateSumParMatchesSequential(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(47))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, NewSchema(0, 1, 2), ParCutoff+rng.Intn(4000), 25)
		kpos := []int{0, 1}
		vpos := 2
		// Sequential reference: the localAggregate insert loop.
		groups := hashtab.New(len(kpos), r.Len())
		var wantSums []int64
		var wantReps []int32
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			e, found := groups.Insert(row, kpos)
			if !found {
				wantSums = append(wantSums, 0)
				wantReps = append(wantReps, int32(i))
			}
			wantSums[e] += row[vpos]
		}
		for _, w := range forkerCounts[1:] { // Workers()==1 returns nil by design
			reps, sums := r.AggregateSumPar(kpos, vpos, goForker{w})
			if !slices.Equal(reps, wantReps) || !slices.Equal(sums, wantSums) {
				t.Logf("seed %d workers %d: AggregateSumPar differs", seed, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Sub-cutoff inputs must stay sequential and be counted.
func TestParKernelCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	small := randomRel(rng, NewSchema(0, 1), ParCutoff-1, 10)
	big := randomRel(rng, NewSchema(0, 1), ParCutoff, 10)

	ResetParStats()
	_ = small.DedupPar(goForker{4})
	if st := ParStats(); st.SeqCutoffs != 1 || st.KernelRuns != 0 {
		t.Fatalf("sub-cutoff dedup counted %+v, want 1 cutoff / 0 runs", st)
	}
	_ = big.DedupPar(goForker{4})
	if st := ParStats(); st.KernelRuns != 1 {
		t.Fatalf("cutoff-size dedup counted %+v, want 1 parallel run", st)
	}

	// A sequential forker never counts either way.
	ResetParStats()
	_ = big.DedupPar(goForker{1})
	if st := ParStats(); st.KernelRuns != 0 || st.SeqCutoffs != 0 {
		t.Fatalf("sequential forker counted %+v", st)
	}
}
