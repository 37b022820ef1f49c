package relation

import (
	"sync/atomic"

	"coverpack/internal/metrics"
)

// streamChunks counts chunks yielded by RowIterators (the parked-arena
// reader and external sort). Like the pool counters it is a
// process-wide atomic on the hot path, exposed to the default registry
// as a callback series read at scrape time.
var streamChunks atomic.Uint64

// noteChunk counts one chunk yielded by a RowIterator.
func noteChunk() { streamChunks.Add(1) }

func init() {
	metrics.Default.NewCounterFunc("coverpack_stream_chunks_total",
		"Chunks yielded by relation row iterators (parked-arena reads and external sort).",
		func() float64 { return float64(streamChunks.Load()) })
}
