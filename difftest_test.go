package coverpack_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"coverpack"
	"coverpack/internal/hypergraph"
	"coverpack/internal/relation"
)

// The differential determinism oracle: every catalog query × every
// algorithm that accepts it, executed under the sequential engine and
// under several goroutine-parallel configurations, with the plan/index
// caches enabled and disabled, must produce the same report (emitted
// count, Stats, chosen L) and the same trace — span tree and per-phase
// load attribution — bit for bit. The cache-off sequential run is the
// reference: it is the pre-caching code path, so any divergence in a
// cached or parallel arm is a determinism-contract violation.
//
// Stats.SeqFallback is the one deliberate exception: it records the
// execution mode (whether WithWorkers degraded to sequential on a
// single-CPU host), not a result, so comparisons normalize it.

var oracleAlgorithms = []coverpack.Algorithm{
	coverpack.AlgAcyclicOptimal,
	coverpack.AlgAcyclicConservative,
	coverpack.AlgHyperCube,
	coverpack.AlgSkewAware,
	coverpack.AlgYannakakis,
	coverpack.AlgTriangle,
	coverpack.AlgLoomisWhitney,
}

// oracleWorkerSet returns the parallel worker counts to compare against
// the sequential engine: a fixed 4 plus the machine's CPU count.
func oracleWorkerSet() []int {
	ws := []int{4}
	if n := runtime.NumCPU(); n > 1 && n != 4 {
		ws = append(ws, n)
	}
	return ws
}

// runCfg is one execution configuration of the oracle matrix.
type runCfg struct {
	workers int
	cache   bool // plan cache AND retained key indexes
	pool    bool // arena / hash-bucket / send-list recycling
}

func (c runCfg) String() string {
	cache := "cache-on"
	if !c.cache {
		cache = "cache-off"
	}
	pool := "pool-on"
	if !c.pool {
		pool = "pool-off"
	}
	return fmt.Sprintf("workers=%d/%s/%s", c.workers, cache, pool)
}

// tracedRun executes one configuration with a collector attached and
// returns the report plus both trace artifacts. Cache-off disables both
// the cluster's exchange-plan cache and the relation layer's retained
// key indexes; pool-off disables the cross-run memory recycling pools
// (the pre-pooling allocation path). Both globals are restored to their
// defaults before returning.
func tracedRun(t *testing.T, alg coverpack.Algorithm, in *coverpack.Instance, p int, cfg runCfg) (*coverpack.Report, *coverpack.TraceSpan, []coverpack.PhaseRow, error) {
	t.Helper()
	if !cfg.cache {
		relation.SetIndexCaching(false)
		defer relation.SetIndexCaching(true)
	}
	if !cfg.pool {
		coverpack.SetPooling(false)
		defer coverpack.SetPooling(true)
	}
	col := coverpack.NewTraceCollector()
	rep, err := coverpack.ExecuteOpts(alg, in, p, coverpack.ExecOptions{
		Workers:     cfg.workers,
		Recorder:    col,
		NoPlanCache: !cfg.cache,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	root := col.Root()
	return rep, root, coverpack.PhaseTable(root), nil
}

// assertRunsAgree compares a run against the reference across every
// observable. SeqFallback is execution metadata (see the file comment),
// so it is zeroed on both sides before comparing.
func assertRunsAgree(t *testing.T, label string,
	seqRep *coverpack.Report, seqRoot *coverpack.TraceSpan, seqPhases []coverpack.PhaseRow,
	parRep *coverpack.Report, parRoot *coverpack.TraceSpan, parPhases []coverpack.PhaseRow) {
	t.Helper()
	sr, pr := *seqRep, *parRep
	sr.Stats.SeqFallback, pr.Stats.SeqFallback = false, false
	if sr != pr {
		t.Errorf("%s: report diverged\n  reference: emitted=%d stats={%v} L=%d\n  candidate: emitted=%d stats={%v} L=%d",
			label, seqRep.Emitted, seqRep.Stats, seqRep.L, parRep.Emitted, parRep.Stats, parRep.L)
	}
	if !reflect.DeepEqual(seqPhases, parPhases) {
		t.Errorf("%s: per-phase load attribution diverged:\n  reference: %+v\n  candidate: %+v", label, seqPhases, parPhases)
	}
	if !reflect.DeepEqual(seqRoot, parRoot) {
		t.Errorf("%s: trace span trees diverged (events, order, or structure)", label)
	}
}

// oracleConfigs is the comparison matrix: the reference (sequential,
// caches off, pools off — the pre-caching, pre-pooling code path)
// against sequential cache-on plus, per worker count, parallel cache-on
// and cache-off — each of those with memory recycling on and off. The
// parallel arms run the morsel-parallel local kernels wherever an
// operator crosses their cutoff, so they also pin the kernels'
// byte-identity with the sequential operators.
func oracleConfigs() []runCfg {
	var cfgs []runCfg
	for _, pool := range []bool{true, false} {
		cfgs = append(cfgs, runCfg{workers: 1, cache: true, pool: pool})
		for _, w := range oracleWorkerSet() {
			cfgs = append(cfgs,
				runCfg{workers: w, cache: true, pool: pool},
				runCfg{workers: w, cache: false, pool: pool})
		}
	}
	return cfgs
}

// runOracle exercises every algorithm that accepts the instance's query
// under each configuration of the matrix.
func runOracle(t *testing.T, in *coverpack.Instance, p int) {
	for _, alg := range oracleAlgorithms {
		seqRep, seqRoot, seqPhases, err := tracedRun(t, alg, in, p, runCfg{workers: 1, cache: false, pool: false})
		if err != nil {
			// The algorithm rejects this query class (e.g. AlgTriangle on a
			// star); nothing to compare.
			continue
		}
		for _, cfg := range oracleConfigs() {
			rep, root, phases, err := tracedRun(t, alg, in, p, cfg)
			if err != nil {
				t.Errorf("%s/%s %v: run failed where the reference succeeded: %v",
					in.Query.Name(), alg, cfg, err)
				continue
			}
			label := in.Query.Name() + "/" + alg.String() + "/" + cfg.String()
			assertRunsAgree(t, label, seqRep, seqRoot, seqPhases, rep, root, phases)
		}
	}
}

// TestDeterminismOracleCatalog sweeps the full paper catalog at a
// moderate instance size.
func TestDeterminismOracleCatalog(t *testing.T) {
	for _, entry := range coverpack.Catalog() {
		entry := entry
		t.Run(entry.Query.Name(), func(t *testing.T) {
			in := coverpack.Uniform(entry.Query, 400, 500, 1)
			runOracle(t, in, 8)
		})
	}
}

// TestDeterminismOracleLarge re-runs a query subset with relations big
// enough to cross the engine's fan-out threshold (1024 tuples), so the
// chunked exchange paths — not just the sequential fallbacks — are the
// ones being compared.
func TestDeterminismOracleLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large instances skipped in -short mode")
	}
	for _, q := range []*hypergraph.Query{
		hypergraph.SemiJoinExample(),
		hypergraph.Line3Join(),
		hypergraph.TriangleJoin(),
		hypergraph.StarDualJoin(3),
	} {
		q := q
		t.Run(q.Name(), func(t *testing.T) {
			in := coverpack.Uniform(q, 1600, 2000, 7)
			runOracle(t, in, 8)
		})
	}
}

// TestDeterminismOracleSkew covers the skewed-instance code paths
// (heavy/light splits take different branches than uniform data).
func TestDeterminismOracleSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("skew instances skipped in -short mode")
	}
	for _, q := range []*hypergraph.Query{
		hypergraph.SemiJoinExample(),
		hypergraph.TriangleJoin(),
	} {
		q := q
		t.Run(q.Name(), func(t *testing.T) {
			in := coverpack.HeavyHub(q, 1500)
			runOracle(t, in, 8)
		})
	}
}
