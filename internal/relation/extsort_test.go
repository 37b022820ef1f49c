package relation

import (
	"math/rand"
	"slices"
	"testing"
)

// External merge sort must be byte-identical to the resident stable
// sort — that is what keeps spilling invisible to Dedup, MergeJoin and
// ReduceByKey consumers, and to every report downstream. The test seams
// extSortRunValues / extMergeResidentValues shrink the run and merge
// thresholds so small inputs exercise multi-run sorts and both merge
// strategies without multi-megabyte fixtures.

// shrinkExtSort shrinks the external-sort seams for one test and
// restores them on cleanup.
func shrinkExtSort(t *testing.T, runValues, mergeResidentValues int) {
	t.Helper()
	oldRun, oldMerge := extSortRunValues, extMergeResidentValues
	extSortRunValues, extMergeResidentValues = runValues, mergeResidentValues
	t.Cleanup(func() { extSortRunValues, extMergeResidentValues = oldRun, oldMerge })
}

// parkedCopy clones r and parks the clone, failing the test if parking
// does not happen.
func parkedCopy(t *testing.T, r *Relation, dir string) (*Relation, *SegmentedArena) {
	t.Helper()
	c := r.Clone()
	sa, err := c.ParkTo(dir)
	if err != nil || sa == nil {
		t.Fatalf("park failed: sa=%v err=%v", sa, err)
	}
	return c, sa
}

func TestExternalSortMatchesResidentBothMergePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 2000 // arity 2 → 4000 values
	base := New(NewSchema(1, 2))
	for i := 0; i < n; i++ {
		base.Add(Tuple{Value(rng.Int63n(40) - 20), Value(rng.Int63n(1 << 50))})
	}
	for _, tc := range []struct {
		name          string
		mergeResident int
		wantParkedOut bool // streaming merge leaves the relation parked
	}{
		{"resident-merge", 1 << 21, false},
		{"streaming-merge", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shrinkExtSort(t, 512, tc.mergeResident) // 256-row runs → 8 runs
			want := base.Clone()
			want.SortBy([]int{0})

			got, sa := parkedCopy(t, base, t.TempDir())
			got.SortBy([]int{0})
			if got.Parked() != tc.wantParkedOut {
				t.Fatalf("parked after sort = %v, want %v", got.Parked(), tc.wantParkedOut)
			}
			if !slices.Equal(got.Data(), want.Data()) { // Data() pages in
				t.Fatal("external sort arena differs from resident stable sort")
			}
			sa.Remove()
			got.RemoveSpill()
		})
	}
}

func TestExternalSortFullRowSortAndMultiColumn(t *testing.T) {
	shrinkExtSort(t, 300, 1<<21)
	rng := rand.New(rand.NewSource(5))
	base := New(NewSchema(1, 2, 3))
	for i := 0; i < 700; i++ {
		base.Add(Tuple{Value(rng.Int63n(6)), Value(rng.Int63n(6)), Value(rng.Int63n(6))})
	}
	for _, tc := range []struct {
		name string
		sort func(*Relation)
	}{
		{"Sort", func(r *Relation) { r.Sort() }},
		{"SortBy-two-cols", func(r *Relation) { r.SortBy([]int{2, 0}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := base.Clone()
			tc.sort(want)
			got, sa := parkedCopy(t, base, t.TempDir())
			tc.sort(got)
			if !slices.Equal(got.Data(), want.Data()) {
				t.Fatal("external sort diverges from resident sort")
			}
			sa.Remove()
			got.RemoveSpill()
		})
	}
}

func TestExternalSortAlreadySortedEarlyOut(t *testing.T) {
	shrinkExtSort(t, 128, 1<<21)
	r := New(NewSchema(1))
	for i := 0; i < 1000; i++ {
		r.AddValues(int64(i / 3)) // non-decreasing with ties
	}
	c, sa := parkedCopy(t, r, t.TempDir())
	defer sa.Remove()
	ver := c.Version()
	before := SpillStats()
	c.SortBy([]int{0})
	if !c.Parked() {
		t.Fatal("already-sorted early-out paged the relation in")
	}
	if got := c.Version(); got != ver {
		t.Fatalf("early-out bumped version %d -> %d", ver, got)
	}
	if got := SpillStats().SegmentsWritten - before.SegmentsWritten; got != 0 {
		t.Fatalf("early-out wrote %d segments", got)
	}
	assertSame(t, "content", materialize(c.Iter()), r)
}

func TestExternalSortSingleRunFallsBackToResident(t *testing.T) {
	shrinkExtSort(t, 1<<18, 1<<21) // default: 200 rows is far below one run
	rng := rand.New(rand.NewSource(8))
	base := New(NewSchema(1, 2))
	for i := 0; i < 200; i++ {
		base.Add(Tuple{Value(rng.Int63n(10)), Value(i)})
	}
	want := base.Clone()
	want.SortBy([]int{0})
	got, sa := parkedCopy(t, base, t.TempDir())
	defer sa.Remove()
	got.SortBy([]int{0})
	if got.Parked() {
		t.Fatal("single-run input should have paged in and sorted resident")
	}
	if !slices.Equal(got.Data(), want.Data()) {
		t.Fatal("fallback sort differs from resident sort")
	}
}

// TestExternalSortFeedsSortConsumers drives the operators that sort
// internally — Dedup and MergeJoin — over parked inputs with the
// external path forced, pinning result identity end to end.
func TestExternalSortFeedsSortConsumers(t *testing.T) {
	shrinkExtSort(t, 256, 1<<21)
	rng := rand.New(rand.NewSource(13))
	r := New(NewSchema(1, 2))
	s := New(NewSchema(2, 3))
	for i := 0; i < 900; i++ {
		r.Add(Tuple{Value(rng.Int63n(25)), Value(rng.Int63n(25))})
		s.Add(Tuple{Value(rng.Int63n(25)), Value(rng.Int63n(25))})
	}
	wantDedup := r.Dedup()
	wantJoin := r.MergeJoin(s)

	pr, sa1 := parkedCopy(t, r, t.TempDir())
	ps, sa2 := parkedCopy(t, s, t.TempDir())
	defer sa1.Remove()
	defer sa2.Remove()
	assertSame(t, "dedup-over-parked", pr.Dedup(), wantDedup)
	assertSame(t, "mergejoin-over-parked", pr.MergeJoin(ps), wantJoin)
	pr.RemoveSpill()
	ps.RemoveSpill()
}
