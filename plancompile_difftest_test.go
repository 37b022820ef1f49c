package coverpack_test

import (
	"testing"

	"coverpack"
	"coverpack/internal/hypergraph"
)

// Plan-compile-cache oracle: for every catalog query × algorithm ×
// worker count, a run with the compile cache forced OFF (the pre-cache
// compilation path) is the reference, and cache-on runs — cold (just
// after a full reset) and warm (entries populated by the cold run) —
// must match it byte for byte across the report, the span tree, and
// the per-phase load attribution. Warm arms are where isomorphic
// sharing and equivariant remapping actually serve artifacts, so a
// remap bug cannot hide.

// planCompileRun executes one arm with a collector attached, the
// compile cache switched on or off for the run. The switch is
// process-wide, which is safe here because the oracle runs serially.
func planCompileRun(t *testing.T, alg coverpack.Algorithm, in *coverpack.Instance, p, workers int,
	cache bool) (*coverpack.Report, *coverpack.TraceSpan, []coverpack.PhaseRow, error) {
	t.Helper()
	coverpack.SetPlanCompileCache(cache)
	defer coverpack.SetPlanCompileCache(true)
	col := coverpack.NewTraceCollector()
	rep, err := coverpack.ExecuteOpts(alg, in, p, coverpack.ExecOptions{
		Workers:  workers,
		Recorder: col,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	root := col.Root()
	return rep, root, coverpack.PhaseTable(root), nil
}

// TestPlanCompileOracleCatalog sweeps the full catalog × algorithm ×
// worker matrix.
func TestPlanCompileOracleCatalog(t *testing.T) {
	defer coverpack.ResetPlanCompileCache()
	defer coverpack.ResetAnalyzeCache()
	for _, entry := range coverpack.Catalog() {
		entry := entry
		t.Run(entry.Query.Name(), func(t *testing.T) {
			in := coverpack.Uniform(entry.Query, 400, 500, 1)
			for _, alg := range oracleAlgorithms {
				refRep, refRoot, refPhases, err := planCompileRun(t, alg, in, 8, 1, false)
				if err != nil {
					// The algorithm rejects this query class; nothing to
					// compare.
					continue
				}
				for _, w := range []int{1, 4} {
					coverpack.ResetPlanCompileCache()
					coverpack.ResetAnalyzeCache()
					for _, arm := range []string{"cold", "warm"} {
						rep, root, phases, err := planCompileRun(t, alg, in, 8, w, true)
						if err != nil {
							t.Errorf("%s/%s workers=%d %s: run failed where the reference succeeded: %v",
								entry.Query.Name(), alg, w, arm, err)
							continue
						}
						label := entry.Query.Name() + "/" + alg.String() + "/compile-" + arm
						assertRunsAgree(t, label, refRep, refRoot, refPhases, rep, root, phases)
					}
				}
			}
		})
	}
}

// TestPlanCompileIsomorphicQueries pins the isomorphic-sharing
// contract end to end: a renamed catalog query shares the canonical
// shape entry with the original (the hit counters prove it) and its
// runs produce the identically-shaped report — the instance generator
// and the executor see the same structure, so everything measurable
// matches modulo the name remap.
func TestPlanCompileIsomorphicQueries(t *testing.T) {
	coverpack.ResetPlanCompileCache()
	coverpack.ResetAnalyzeCache()
	defer coverpack.ResetPlanCompileCache()
	defer coverpack.ResetAnalyzeCache()

	base := hypergraph.Line3Join()
	ren := hypergraph.MustParse("line3-iso", "T1(P,Q) T2(Q,R) T3(R,S)")
	if k1, k2 := coverpack.CanonicalKey(base), coverpack.CanonicalKey(ren); k1 == "" || k1 != k2 {
		t.Fatalf("renamed query did not share the canonical key: %q vs %q", k1, k2)
	}

	for _, alg := range []coverpack.Algorithm{
		coverpack.AlgAcyclicOptimal, coverpack.AlgSkewAware, coverpack.AlgYannakakis,
	} {
		inBase := coverpack.Uniform(base, 400, 500, 1)
		inRen := coverpack.Uniform(ren, 400, 500, 1)

		repBase, err := coverpack.Execute(alg, inBase, 8)
		if err != nil {
			t.Fatalf("%s on base: %v", alg, err)
		}
		before := coverpack.PlanCompileCacheStats()
		repRen, err := coverpack.Execute(alg, inRen, 8)
		if err != nil {
			t.Fatalf("%s on renamed: %v", alg, err)
		}
		after := coverpack.PlanCompileCacheStats()

		rb, rr := *repBase, *repRen
		rb.Stats.SeqFallback, rr.Stats.SeqFallback = false, false
		if rb != rr {
			t.Errorf("%s: isomorphic runs diverged:\n  base:    emitted=%d stats={%v} L=%d\n  renamed: emitted=%d stats={%v} L=%d",
				alg, repBase.Emitted, repBase.Stats, repBase.L, repRen.Emitted, repRen.Stats, repRen.L)
		}
		if after.IsoHits <= before.IsoHits {
			t.Errorf("%s: renamed run recorded no isomorphic hits (before=%d after=%d)",
				alg, before.IsoHits, after.IsoHits)
		}
	}
}
