package relation

import (
	"math"
	"sort"
)

// Worst-case-optimal local join: Generic Join (Ngo, Porat, Ré, Rudra,
// JACM 2018) in its Leapfrog Triejoin form (Veldhuizen, ICDT 2014).
//
// The kernel binds one variable at a time in a fixed global order. Each
// relation is sorted and deduplicated once into a column trie whose
// levels follow that order; a trie node is a contiguous row range, and
// binding a variable intersects the participating relations' current
// ranges with galloping seeks. Nothing is materialized between
// variables, so the work is bounded by the AGM bound of the input
// (up to log factors) and the memory by a constant times its size.
// See DESIGN.md, "Local join kernel".

// gjTrie is one relation sorted and deduplicated on its variables in
// global order, stored column-wise: t[l][i] is the value of the
// relation's l-th variable in distinct row i. Rows that agree on the
// first l variables are contiguous, so a trie node at depth l is a row
// range and its children are the runs of equal values in t[l].
type gjTrie [][]Value

// gjPart names the trie level that holds a variable.
type gjPart struct{ trie, level int }

// genericJoin is the state of one kernel run over a fixed set of
// relations. It is single-use and not safe for concurrent use.
type genericJoin struct {
	vars  []int      // attribute ids in global order
	tries []gjTrie   // one per relation of nonzero arity
	part  [][]gjPart // part[d]: the tries holding vars[d]
	// tail is the first depth from which every variable is held by one
	// trie only. Once vars[:tail] are bound, the tries are independent,
	// so the count is the product of their remaining range sizes.
	tail      int
	tailTries []int
	lo, hi    []int // current row range of each trie

	out    Shard   // emit target; counting when out.b is nil
	tuple  []Value // the binding, in output-schema order
	outPos []int   // outPos[d]: output position of vars[d]
}

// newGenericJoin sorts rels into tries over the global variable order:
// most-shared attribute first, ties broken by attribute id. ok is false
// when some relation is empty, so the join is empty. 0-ary relations
// take no part beyond that check.
func newGenericJoin(rels []*Relation) (g *genericJoin, ok bool) {
	degree := map[int]int{}
	for _, r := range rels {
		if r.Len() == 0 {
			return nil, false
		}
		for i := 0; i < r.schema.Len(); i++ {
			degree[r.schema.Attr(i)]++
		}
	}
	g = &genericJoin{}
	for a := range degree {
		g.vars = append(g.vars, a)
	}
	sort.Slice(g.vars, func(i, j int) bool {
		a, b := g.vars[i], g.vars[j]
		if degree[a] != degree[b] {
			return degree[a] > degree[b]
		}
		return a < b
	})
	g.tail = len(g.vars)
	for g.tail > 0 && degree[g.vars[g.tail-1]] == 1 {
		g.tail--
	}
	rank := make(map[int]int, len(g.vars))
	for d, a := range g.vars {
		rank[a] = d
	}
	g.part = make([][]gjPart, len(g.vars))
	for _, r := range rels {
		if r.arity == 0 {
			continue
		}
		attrs := r.schema.Attrs()
		sort.Slice(attrs, func(i, j int) bool { return rank[attrs[i]] < rank[attrs[j]] })
		t := len(g.tries)
		for l, a := range attrs {
			g.part[rank[a]] = append(g.part[rank[a]], gjPart{t, l})
		}
		if rank[attrs[len(attrs)-1]] >= g.tail {
			g.tailTries = append(g.tailTries, t)
		}
		g.tries = append(g.tries, buildTrie(r, r.schema.Positions(attrs)))
	}
	g.lo = make([]int, len(g.tries))
	g.hi = make([]int, len(g.tries))
	for t := range g.tries {
		g.hi[t] = len(g.tries[t][0])
	}
	return g, true
}

// buildTrie sorts r on the given positions and keeps one copy of each
// distinct row, column by column.
func buildTrie(r *Relation, pos []int) gjTrie {
	perm := sortedPerm(r, pos)
	back := make([]Value, len(pos)*r.rows)
	cols := make(gjTrie, len(pos))
	for l := range cols {
		cols[l] = back[l*r.rows : l*r.rows : (l+1)*r.rows]
	}
	prev := -1
	for _, i := range perm {
		row := r.data[int(i)*r.arity:]
		if prev >= 0 && sameOn(row, r.data[prev*r.arity:], pos) {
			continue
		}
		for l, p := range pos {
			cols[l] = append(cols[l], row[p])
		}
		prev = int(i)
	}
	return cols
}

func sameOn(a, b []Value, pos []int) bool {
	for _, p := range pos {
		if a[p] != b[p] {
			return false
		}
	}
	return true
}

// countGeneric returns the number of distinct tuples in the natural
// join of rels.
func countGeneric(rels []*Relation) int64 {
	g, ok := newGenericJoin(rels)
	if !ok {
		return 0
	}
	return g.walk(0)
}

// joinGeneric materializes the natural join of rels over the union of
// their attributes, each result tuple once, in the kernel's variable
// order.
func joinGeneric(rels []*Relation) *Relation {
	var attrs []int
	for _, r := range rels {
		attrs = append(attrs, r.schema.Attrs()...)
	}
	schema := NewSchema(attrs...)
	g, ok := newGenericJoin(rels)
	if !ok {
		return New(schema)
	}
	b := NewBuilder(schema, 1)
	g.out = b.Shard(0)
	g.tuple = make([]Value, schema.Len())
	g.outPos = schema.Positions(g.vars)
	g.walk(0)
	return b.Build()
}

// walk extends every binding of vars[:d] consistent with the current
// trie ranges: it returns the number of extensions to full bindings
// and, when emitting, adds each one to the output.
func (g *genericJoin) walk(d int) int64 {
	counting := g.out.b == nil
	if counting && d == g.tail {
		n := int64(1)
		for _, t := range g.tailTries {
			n = mulSat(n, int64(g.hi[t]-g.lo[t]))
		}
		return n
	}
	if d == len(g.vars) {
		g.out.Add(g.tuple)
		return 1
	}
	ps := g.part[d]
	// At the last variable every trie is at its last level, where the
	// values of a range are distinct: each common value counts once.
	lastShared := counting && d == len(g.vars)-1
	if lastShared && len(ps) == 2 {
		a, b := ps[0], ps[1]
		return countCommon(g.tries[a.trie][a.level][g.lo[a.trie]:g.hi[a.trie]],
			g.tries[b.trie][b.level][g.lo[b.trie]:g.hi[b.trie]])
	}
	var stack [8]int
	saved := stack[:0]
	if 2*len(ps) > len(stack) {
		saved = make([]int, 0, 2*len(ps))
	}
	for _, p := range ps {
		saved = append(saved, g.lo[p.trie], g.hi[p.trie])
	}
	var total int64
	for {
		v, ok := g.leapfrog(ps)
		if !ok {
			break
		}
		if lastShared {
			total++
			for _, p := range ps {
				g.lo[p.trie]++
			}
			continue
		}
		for j, p := range ps {
			g.hi[p.trie] = gallopAbove(g.tries[p.trie][p.level], g.lo[p.trie], saved[2*j+1], v)
		}
		if !counting {
			g.tuple[g.outPos[d]] = v
		}
		total = addSat(total, g.walk(d+1))
		for j, p := range ps {
			g.lo[p.trie] = g.hi[p.trie]
			g.hi[p.trie] = saved[2*j+1]
		}
	}
	for j, p := range ps {
		g.lo[p.trie], g.hi[p.trie] = saved[2*j], saved[2*j+1]
	}
	return total
}

// leapfrog advances the ranges of the tries in ps to the least value
// present in all of them and returns it; ok is false when some range
// runs out first. The tries take turns seeking to the largest head seen
// so far, until every trie in a row lands on it.
func (g *genericJoin) leapfrog(ps []gjPart) (v Value, ok bool) {
	first := ps[0]
	if g.lo[first.trie] == g.hi[first.trie] {
		return 0, false
	}
	v = g.tries[first.trie][first.level][g.lo[first.trie]]
	for i, agree := 0, 1; agree < len(ps); {
		if i++; i == len(ps) {
			i = 0
		}
		p := ps[i]
		col := g.tries[p.trie][p.level]
		lo := gallopFrom(col, g.lo[p.trie], g.hi[p.trie], v)
		g.lo[p.trie] = lo
		if lo == g.hi[p.trie] {
			return 0, false
		}
		if col[lo] == v {
			agree++
		} else {
			v, agree = col[lo], 1
		}
	}
	return v, true
}

// countCommon returns the size of the intersection of two strictly
// increasing columns: the last-variable count of two tries, whose last
// levels hold distinct values within a range.
func countCommon(a, b []Value) int64 {
	var n int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i = gallopFrom(a, i+1, len(a), b[j])
		case a[i] > b[j]:
			j = gallopFrom(b, j+1, len(b), a[i])
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// gallopFrom returns the first index in [lo, hi) whose value is >= v,
// or hi, by exponential probing then binary search; col[lo:hi] must be
// sorted.
func gallopFrom(col []Value, lo, hi int, v Value) int {
	if lo >= hi || col[lo] >= v {
		return lo
	}
	step := 1
	for lo+step < hi && col[lo+step] < v {
		lo += step
		step <<= 1
	}
	// col[lo] < v, and the answer lies in (lo, end].
	end := min(lo+step, hi)
	lo++
	for lo < end {
		mid := int(uint(lo+end) >> 1)
		if col[mid] < v {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	return lo
}

// gallopAbove returns the first index in [lo, hi) whose value is > v,
// or hi.
func gallopAbove(col []Value, lo, hi int, v Value) int {
	if v == math.MaxInt64 {
		return hi
	}
	return gallopFrom(col, lo, hi, v+1)
}

func addSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
