package relation

// Chunked reads of spilled arenas.
//
// A parked relation (segment.go) is read back without paging its arena
// in: the SegmentedArena reader yields fixed-size chunks, resident
// segments as zero-copy views and spilled segments decoded into one
// pooled scratch arena. External sort (extsort.go) consumes the same
// reader. Every other operator works on materialized relations, and
// exchanges always materialize.
//
// # Contract
//
// A RowIterator yields Chunks of at most streamChunkRows rows. A chunk
// is valid only until the next Next or Close call on the iterator that
// yielded it: the reader decodes spilled segments into one reused
// scratch arena. Consumers that need rows to outlive the iteration
// must copy them out.

// streamChunkRows is the row capacity of one chunk. 256 rows of 8-byte
// values keeps a full-arity chunk within the smallest arena pool
// classes while amortizing per-chunk dispatch.
const streamChunkRows = 256

// Chunk is one fixed-capacity batch of rows yielded by a RowIterator:
// an arity-strided view of at most streamChunkRows rows. Chunks are
// borrowed, not owned — see the file comment for the validity window.
type Chunk struct {
	data  []Value
	arity int
	rows  int
}

// Len returns the number of rows in the chunk.
func (c Chunk) Len() int { return c.rows }

// Arity returns the tuple width.
func (c Chunk) Arity() int { return c.arity }

// Row returns row i as a view into the chunk, capped at the row
// boundary like Relation.Row.
func (c Chunk) Row(i int) Tuple {
	return c.data[i*c.arity : (i+1)*c.arity : (i+1)*c.arity]
}

// RowIterator reads a relation's rows in order as arena chunks.
type RowIterator interface {
	// Schema returns the schema of the yielded rows.
	Schema() Schema
	// Next yields the next chunk; ok is false once the input is
	// exhausted. The returned chunk is valid until the next Next or
	// Close call.
	Next() (c Chunk, ok bool)
	// Close releases the iterator's scratch resources. Idempotent;
	// must be called when abandoning an iterator early.
	Close()
}

// Rewindable is a RowIterator that can restart from the first row.
type Rewindable interface {
	RowIterator
	// Rewind resets the iterator to the first row.
	Rewind()
}

// sourceIterator reads a resident relation as zero-copy chunk views
// into its arena. The arena slice is captured at Iter time: iterating
// while mutating the relation is illegal anyway, and the capture makes
// an open iterator immune to the relation being parked to disk
// mid-iteration (the old backing array stays alive and correct —
// parking drops the reference, it never overwrites).
type sourceIterator struct {
	schema Schema
	data   []Value
	arity  int
	rows   int
	row    int
}

// Iter returns a rewindable iterator over the relation's rows. A
// parked relation (ParkTo) is read from its spilled segments directly,
// without paging the arena back in; a resident one yields views into
// its arena, valid as long as the relation is not mutated.
func (r *Relation) Iter() Rewindable {
	if sa := r.segArena(); sa != nil {
		return sa.Iter()
	}
	return &sourceIterator{schema: r.schema, data: r.data, arity: r.arity, rows: r.rows}
}

func (it *sourceIterator) Schema() Schema { return it.schema }

func (it *sourceIterator) Next() (Chunk, bool) {
	if it.row >= it.rows {
		return Chunk{}, false
	}
	n := it.rows - it.row
	if n > streamChunkRows {
		n = streamChunkRows
	}
	var data []Value
	if it.arity > 0 {
		data = it.data[it.row*it.arity : (it.row+n)*it.arity]
	}
	it.row += n
	noteChunk()
	return Chunk{data: data, arity: it.arity, rows: n}, true
}

func (it *sourceIterator) Rewind() { it.row = 0 }

func (it *sourceIterator) Close() {}

// scratchChunk is the reusable decode buffer of the spilled-segment
// reader: one pooled arena of streamChunkRows*arity values.
type scratchChunk struct {
	data  []Value
	arity int
	rows  int
}

func newScratch(arity int) scratchChunk {
	var data []Value
	if arity > 0 {
		data = GetArena(streamChunkRows * arity)
	}
	return scratchChunk{data: data, arity: arity}
}

func (s *scratchChunk) reset() { s.rows = 0; s.data = s.data[:0] }

func (s *scratchChunk) chunk() Chunk {
	noteChunk()
	return Chunk{data: s.data, arity: s.arity, rows: s.rows}
}

func (s *scratchChunk) release() {
	PutArena(s.data[:0])
	s.data = nil
}
