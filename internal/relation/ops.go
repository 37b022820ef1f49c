package relation

import (
	"fmt"

	"coverpack/internal/hashtab"
)

// This file implements the local (single-server) operators. The MPC
// algorithms compose them with communication primitives; the sequential
// oracle in instance.go composes them directly.
//
// Every keyed operator (dedup, semi-join, anti-join, hash join, group
// count) probes an internal/hashtab table keyed on projected arena
// columns — no per-tuple key strings. Output orders are identical to
// the historical map[string] implementations because hashtab entries
// enumerate in first-insert order and probes scan input order.

// Project returns the projection onto the given attributes (multiset —
// no dedup; call Dedup for set semantics).
func (r *Relation) Project(attrs ...int) *Relation {
	return r.ProjectTo(NewSchema(attrs...))
}

// ProjectTo projects onto a prebuilt schema — the allocation-free
// entry for per-fragment loops, which hoist the NewSchema call (sort +
// position map) out of the loop and reuse one schema for every
// fragment.
func (r *Relation) ProjectTo(schema Schema) *Relation {
	out := New(schema)
	if r.rows == 0 {
		// Still validate: a missing attribute must panic regardless of
		// whether any rows exist.
		for i := 0; i < schema.Len(); i++ {
			if a := schema.Attr(i); r.schema.Pos(a) < 0 {
				panic(fmt.Sprintf("relation: Project attribute %d not in schema %v", a, r.schema))
			}
		}
		return out
	}
	pos := make([]int, schema.Len())
	for i := range pos {
		a := schema.Attr(i)
		p := r.schema.Pos(a)
		if p < 0 {
			panic(fmt.Sprintf("relation: Project attribute %d not in schema %v", a, r.schema))
		}
		pos[i] = p
	}
	out.Grow(r.rows)
	for i := 0; i < r.rows; i++ {
		t := r.Row(i)
		for _, p := range pos {
			out.data = append(out.data, t[p])
		}
		out.rows++
	}
	return out
}

// SelectEq returns the tuples with value v at attribute a.
func (r *Relation) SelectEq(a int, v Value) *Relation {
	p := r.schema.Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: SelectEq attribute %d not in schema %v", a, r.schema))
	}
	out := New(r.schema)
	for i := 0; i < r.rows; i++ {
		if t := r.Row(i); t[p] == v {
			out.Add(t)
		}
	}
	return out
}

// SelectEqProject is SelectEq(a, v).Project(attrs...) in one pass:
// survivors are written straight into the output, with no SelectEq
// intermediate (the wide relation, carrying every column). Output and
// panics match the two operators: the selection attribute is validated
// first, then every projection attribute (even when nothing survives),
// and survivors are emitted in scan order with columns in schema
// order.
func (r *Relation) SelectEqProject(a int, v Value, attrs ...int) *Relation {
	p := r.schema.Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: SelectEq attribute %d not in schema %v", a, r.schema))
	}
	schema := NewSchema(attrs...)
	out := New(schema)
	pos := make([]int, schema.Len())
	for i := range pos {
		pa := schema.Attr(i)
		pp := r.schema.Pos(pa)
		if pp < 0 {
			panic(fmt.Sprintf("relation: Project attribute %d not in schema %v", pa, r.schema))
		}
		pos[i] = pp
	}
	for i := 0; i < r.rows; i++ {
		t := r.Row(i)
		if t[p] != v {
			continue
		}
		for _, q := range pos {
			out.data = append(out.data, t[q])
		}
		out.rows++
	}
	return out
}

// SelectIn returns the tuples whose value at attribute a is in the set.
func (r *Relation) SelectIn(a int, vs map[Value]bool) *Relation {
	p := r.schema.Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: SelectIn attribute %d not in schema %v", a, r.schema))
	}
	out := New(r.schema)
	for i := 0; i < r.rows; i++ {
		if t := r.Row(i); vs[t[p]] {
			out.Add(t)
		}
	}
	return out
}

// Dedup returns the relation with duplicate tuples removed.
func (r *Relation) Dedup() *Relation {
	out := New(r.schema)
	if r.rows == 0 {
		return out
	}
	if r.rows <= smallDedupCutoff {
		// Linear scan over the rows already kept — same first-seen
		// order as the hash path, no table or position allocations.
		out.Grow(r.rows)
		for i := 0; i < r.rows; i++ {
			t := r.Row(i)
			dup := false
			for e := 0; e < out.rows && !dup; e++ {
				dup = out.Row(e).Equal(t)
			}
			if !dup {
				out.Add(t)
			}
		}
		return out
	}
	// The full-row key index doubles as the dedup table: entry e's head
	// row is the first occurrence of its key, and entries enumerate in
	// first-insert order, so emitting heads in entry order reproduces
	// the historical first-seen output exactly. Repeated Dedup of an
	// unchanged relation (e.g. shared inputs re-deduped per stratum)
	// reuses the retained index.
	ix := r.indexOn(identityPositions(r.arity))
	out.Grow(len(ix.heads))
	for _, h := range ix.heads {
		out.Add(r.Row(int(h)))
	}
	return out
}

// smallDedupCutoff bounds Dedup's linear-scan path; see smallAggCutoff
// in internal/primitives for the same trade-off.
const smallDedupCutoff = 32

// SemiJoin returns the tuples of r that agree with at least one tuple of
// s on their common attributes (r ⋉ s). With no common attributes it
// returns r unchanged when s is nonempty and empty otherwise, matching
// the join semantics.
func (r *Relation) SemiJoin(s *Relation) *Relation {
	common := r.schema.Common(s.schema)
	if len(common) == 0 {
		if s.Len() == 0 {
			return New(r.schema)
		}
		return r.Clone()
	}
	probe := s.indexOn(s.schema.Positions(common)).table
	rPos := r.schema.Positions(common)
	out := New(r.schema)
	for i := 0; i < r.rows; i++ {
		if t := r.Row(i); probe.Find(t, rPos) >= 0 {
			out.Add(t)
		}
	}
	return out
}

// AntiJoin returns the tuples of r with no partner in s on the common
// attributes (r ▷ s).
func (r *Relation) AntiJoin(s *Relation) *Relation {
	common := r.schema.Common(s.schema)
	if len(common) == 0 {
		if s.Len() == 0 {
			return r.Clone()
		}
		return New(r.schema)
	}
	probe := s.indexOn(s.schema.Positions(common)).table
	rPos := r.schema.Positions(common)
	out := New(r.schema)
	for i := 0; i < r.rows; i++ {
		if t := r.Row(i); probe.Find(t, rPos) < 0 {
			out.Add(t)
		}
	}
	return out
}

// Join returns the natural join r ⋈ s (hash join on the shared
// attributes; Cartesian product when none are shared).
func (r *Relation) Join(s *Relation) *Relation {
	common := r.schema.Common(s.schema)
	outSchema := r.schema.Union(s.schema)
	out := New(outSchema)

	// Precompute output assembly positions and reuse one scratch row:
	// emit copies into the output arena, so nothing per-row escapes.
	rOut := make([]int, 0, r.schema.Len())
	for _, a := range r.schema.attrs {
		rOut = append(rOut, outSchema.Pos(a))
	}
	sOut := make([]int, 0, s.schema.Len())
	for _, a := range s.schema.attrs {
		sOut = append(sOut, outSchema.Pos(a))
	}
	scratch := make(Tuple, outSchema.Len())
	emit := func(rt, st Tuple) {
		for i, p := range rOut {
			scratch[p] = rt[i]
		}
		for i, p := range sOut {
			scratch[p] = st[i]
		}
		out.Add(scratch)
	}

	if len(common) == 0 {
		for i := 0; i < r.rows; i++ {
			rt := r.Row(i)
			for j := 0; j < s.rows; j++ {
				emit(rt, s.Row(j))
			}
		}
		return out
	}
	// Build on the smaller side. The key index maps each key to its
	// chain of build rows (head/next links in build order), replacing
	// the legacy map[string][]Tuple with the same per-key iteration
	// order; a retained index from an earlier keyed op on the same side
	// and key (e.g. the semi-join that filtered it) is reused as-is.
	build, probe := s, r
	buildIsS := true
	if r.Len() < s.Len() {
		build, probe = r, s
		buildIsS = false
	}
	buildPos := build.schema.Positions(common)
	probePos := probe.schema.Positions(common)
	ix := build.indexOn(buildPos)
	for i := 0; i < probe.rows; i++ {
		t := probe.Row(i)
		e := ix.table.Find(t, probePos)
		if e < 0 {
			continue
		}
		for b := ix.heads[e]; b >= 0; b = ix.next[b] {
			bt := build.Row(int(b))
			if buildIsS {
				emit(t, bt)
			} else {
				emit(bt, t)
			}
		}
	}
	return out
}

// GroupCount returns one tuple (a-value, count) per distinct value of
// attribute a, in first-seen order of a's values. The count column is
// reported on the synthetic attribute id passed as countAttr (callers
// pick an id outside the query's range).
func (r *Relation) GroupCount(a, countAttr int) *Relation {
	p := r.schema.Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: GroupCount attribute %d not in schema %v", a, r.schema))
	}
	groups := hashtab.New(1, 0)
	pos := []int{p}
	var counts []int64 // parallel to table entries
	for i := 0; i < r.rows; i++ {
		e, found := groups.Insert(r.Row(i), pos)
		if !found {
			counts = append(counts, 0)
		}
		counts[e]++
	}
	out := New(NewSchema(a, countAttr))
	// Schema normalizes ascending; find where each lands.
	ap := out.schema.Pos(a)
	cp := out.schema.Pos(countAttr)
	nt := make(Tuple, 2)
	for e := 0; e < groups.Len(); e++ {
		nt[ap] = groups.Key(e)[0]
		nt[cp] = counts[e]
		out.Add(nt)
	}
	groups.Release()
	return out
}

// DistinctValues returns the set of values of attribute a. The int64-
// keyed map allocates no key strings; callers needing deterministic
// order must sort (map iteration order is randomized).
func (r *Relation) DistinctValues(a int) map[Value]bool {
	p := r.schema.Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: DistinctValues attribute %d not in schema %v", a, r.schema))
	}
	out := make(map[Value]bool)
	for i := 0; i < r.rows; i++ {
		out[r.Row(i)[p]] = true
	}
	return out
}
