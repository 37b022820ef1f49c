package relation

import (
	"sync/atomic"

	"coverpack/internal/metrics"
)

// Parallel-kernel telemetry, following the pool counters' pattern:
// hot-path counts land in process-wide atomics and reach the default
// registry as callback series read at scrape time, staying available
// to tests through ParStats even with metrics disabled.

var (
	parKernelRuns atomic.Uint64
	parSeqCutoffs atomic.Uint64
)

// ParCounters snapshots the parallel-kernel counters.
type ParCounters struct {
	// KernelRuns is the number of kernels that took a parallel path.
	KernelRuns uint64
	// SeqCutoffs is the number of parallel-eligible kernels that stayed
	// sequential because the input was below ParCutoff.
	SeqCutoffs uint64
}

// ParStats snapshots the parallel-kernel counters.
func ParStats() ParCounters {
	return ParCounters{
		KernelRuns: parKernelRuns.Load(),
		SeqCutoffs: parSeqCutoffs.Load(),
	}
}

// ResetParStats zeroes the parallel-kernel counters (test/bench seam).
func ResetParStats() {
	parKernelRuns.Store(0)
	parSeqCutoffs.Store(0)
}

func init() {
	metrics.Default.NewCounterFunc("coverpack_par_kernels_total",
		"Relation kernels executed on the morsel-parallel path.",
		func() float64 { return float64(parKernelRuns.Load()) })
	metrics.Default.NewCounterFunc("coverpack_morsel_seq_cutoffs_total",
		"Parallel-eligible relation kernels that stayed sequential under the cost cutoff.",
		func() float64 { return float64(parSeqCutoffs.Load()) })
}
