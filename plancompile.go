package coverpack

import (
	"coverpack/internal/hypergraph"
	"coverpack/internal/lp"
	"coverpack/internal/plan"
)

// This file re-exports the query-compilation shape cache: the
// process-wide LRU of compiled-plan artifacts keyed on the canonical
// form of a query's hypergraph (internal/plan, internal/hypergraph's
// Canon), plus the LP solve memo that rides under it. Compilation
// caching is a pure wall-clock lever — invariant artifacts are shared
// only within an isomorphism class and equivariant ones only between
// identically-embedded queries, so every Report, table and trace is
// byte-identical with the cache on or off (the difftest oracle pins
// this).

// PlanCompileStats reports the shape-cache counters: invariant slot
// hits/misses, the iso-hit subset served across fingerprints,
// equivariant slot hits/misses, LRU evictions and the live entry count.
type PlanCompileStats = plan.Stats

// LPMemoStats reports the LP solve-memo counters, including the number
// of actual simplex executions.
type LPMemoStats = lp.MemoStats

// SetPlanCompileCache toggles compiled-plan reuse at once: the shape
// cache, the LP solve memo under it, and Analyze's pointer L1 (cleared
// so subsequent lookups take the selected path). Off, every lookup
// degrades to direct computation — the pre-cache behavior. The cache
// is on by default.
func SetPlanCompileCache(on bool) {
	plan.SetEnabled(on)
	lp.SetMemo(on)
	clearSyncMap(&analyzeByQuery)
	analyzeL1Count.Store(0)
}

// PlanCompileEnabled reports whether the compile cache is active (the
// layers toggle together through SetPlanCompileCache; this reads the
// shape cache's switch).
func PlanCompileEnabled() bool { return plan.Enabled() }

// PlanCompileCacheStats snapshots the shape-cache counters.
func PlanCompileCacheStats() PlanCompileStats { return plan.Snapshot() }

// LPMemoCacheStats snapshots the LP solve-memo counters.
func LPMemoCacheStats() LPMemoStats { return lp.Memo() }

// ResetPlanCompileCache drops every compiled-plan artifact — shape
// entries, LP memo, Analyze's pointer L1 — and zeroes their counters
// (test and benchmark seam). The legacy Analyze fingerprint memo is
// ResetAnalyzeCache's business.
func ResetPlanCompileCache() {
	plan.Reset()
	lp.ResetMemo()
	clearSyncMap(&analyzeByQuery)
	analyzeL1Count.Store(0)
}

// CanonicalKey returns the labeling-invariant canonical shape key of
// q's hypergraph — equal keys iff isomorphic hypergraphs — or "" when
// the query exceeds the canonical search bounds.
func CanonicalKey(q *Query) string { return hypergraph.CanonKey(q) }

// CompiledPlan bundles what the compilation pipeline decides about one
// query shape: its analysis, canonical identity, acyclicity, and the
// recommended algorithm. Every field is invariant under relabeling, so
// isomorphic queries compile to equal plans (modulo the shared
// Analysis pointer).
type CompiledPlan struct {
	// Analysis is the shared immutable analysis (see Analyze).
	Analysis *Analysis
	// Key is the canonical shape key ("" when the query is too large
	// to canonicalize).
	Key string
	// Acyclic reports α-acyclicity (via the cached GYO reduction).
	Acyclic bool
	// Algorithm is the recommended algorithm for the shape.
	Algorithm Algorithm
}

// CompileQuery resolves the compiled plan for q through the shape
// cache: repeated or isomorphic queries skip classification, LP solves
// and join-tree search entirely.
func CompileQuery(q *Query) (*CompiledPlan, error) {
	a, err := Analyze(q)
	if err != nil {
		return nil, err
	}
	// The shape cache's handle carries the canonical form, so repeat
	// compiles skip canonicalization too; only when the cache declines
	// (disabled, oversize) is the key derived directly.
	key := ""
	if h, ok := plan.For(q); ok {
		key = h.Key()
	} else {
		key = CanonicalKey(q)
	}
	return &CompiledPlan{
		Analysis:  a,
		Key:       key,
		Acyclic:   a.Acyclic,
		Algorithm: RecommendAlgorithm(a),
	}, nil
}

// RecommendAlgorithm picks the implemented algorithm with the best
// proven load bound for the analyzed class: the paper's multi-round
// algorithm (Õ(N/p^{1/ρ*})) for acyclic queries, the Loomis-Whitney
// specialization for LW_n shapes, and the one-round skew-aware
// HyperCube (Õ(N/p^{1/ψ*})) for everything else.
func RecommendAlgorithm(a *Analysis) Algorithm {
	switch {
	case a.Acyclic:
		return AlgAcyclicOptimal
	case a.LoomisWhitney:
		return AlgLoomisWhitney
	default:
		return AlgSkewAware
	}
}
