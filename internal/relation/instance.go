package relation

import (
	"fmt"
	"math"

	"coverpack/internal/hashtab"
	"coverpack/internal/hypergraph"
)

// Instance is a database instance of a join query: one relation per
// hyperedge, schema equal to the edge's attribute set (Section 1.1).
type Instance struct {
	Query     *hypergraph.Query
	Relations []*Relation // indexed by edge
}

// NewInstance allocates an empty instance for the query.
func NewInstance(q *hypergraph.Query) *Instance {
	rels := make([]*Relation, q.NumEdges())
	for e := 0; e < q.NumEdges(); e++ {
		rels[e] = New(NewSchema(q.EdgeVars(e).Attrs()...))
	}
	return &Instance{Query: q, Relations: rels}
}

// Rel returns the relation of edge e.
func (in *Instance) Rel(e int) *Relation { return in.Relations[e] }

// RelByName returns the relation for the named edge, or nil.
func (in *Instance) RelByName(name string) *Relation {
	i := in.Query.EdgeIndex(name)
	if i < 0 {
		return nil
	}
	return in.Relations[i]
}

// N returns max_e |R(e)|, the paper's input size parameter.
func (in *Instance) N() int {
	n := 0
	for _, r := range in.Relations {
		if r.Len() > n {
			n = r.Len()
		}
	}
	return n
}

// TotalTuples returns Σ_e |R(e)|.
func (in *Instance) TotalTuples() int {
	n := 0
	for _, r := range in.Relations {
		n += r.Len()
	}
	return n
}

// Validate checks schema/arity consistency.
func (in *Instance) Validate() error {
	if len(in.Relations) != in.Query.NumEdges() {
		return fmt.Errorf("relation: instance has %d relations for %d edges",
			len(in.Relations), in.Query.NumEdges())
	}
	for e, r := range in.Relations {
		want := NewSchema(in.Query.EdgeVars(e).Attrs()...)
		if !r.Schema().Equal(want) {
			return fmt.Errorf("relation: edge %s schema %v, want %v",
				in.Query.Edge(e).Name, r.Schema(), want)
		}
	}
	return nil
}

// Clone deep-copies the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{Query: in.Query, Relations: make([]*Relation, len(in.Relations))}
	for i, r := range in.Relations {
		out.Relations[i] = r.Clone()
	}
	return out
}

// Join computes the full join result sequentially: the correctness
// oracle for every MPC algorithm in this repository. It runs the
// worst-case-optimal kernel of wcoj.go in emitting mode, so its work is
// bounded by the AGM bound of the instance and it builds no
// intermediate relation. The result holds each output tuple once (set
// semantics), over the union of the edge attributes; its row order is
// the kernel's and carries no meaning.
func (in *Instance) Join() *Relation {
	return joinGeneric(in.Relations)
}

// JoinSize returns |Q(R)|, counting each distinct output tuple once,
// without materializing the join. Acyclic queries take a
// Yannakakis-style count over a join tree: semi-join reduction, then a
// bottom-up weight DP, linear in the input. Cyclic queries take the
// count-only worst-case-optimal kernel of wcoj.go, whose work is
// bounded by the AGM bound of the input and whose memory is a small
// multiple of it.
func (in *Instance) JoinSize() int64 {
	tree, ok := hypergraph.GYO(in.Query)
	if !ok {
		return countGeneric(in.Relations)
	}
	rels := make([]*Relation, len(in.Relations))
	for i, r := range in.Relations {
		rels[i] = r.Dedup()
	}
	rels = semiJoinReduce(in.Query, tree, rels)

	// Bottom-up count DP: weight of a tuple = product over children of
	// the summed weights of matching child tuples.
	total := int64(1)
	for _, root := range tree.Roots() {
		w := countSubtree(in.Query, tree, rels, root)
		var sum int64
		for _, c := range w {
			sum += c
		}
		total = mulSat(total, sum)
		if total == 0 {
			return 0
		}
	}
	return total
}

// countSubtree returns, for each tuple of edge e (deduped), the number
// of join combinations of the subtree rooted at e consistent with it.
func countSubtree(q *hypergraph.Query, tree *hypergraph.JoinTree, rels []*Relation, e int) []int64 {
	r := rels[e]
	weights := make([]int64, r.Len())
	for i := range weights {
		weights[i] = 1
	}
	for _, c := range tree.Children(e) {
		cw := countSubtree(q, tree, rels, c)
		cr := rels[c]
		common := r.Schema().Common(cr.Schema())
		if len(common) == 0 {
			var sum int64
			for _, w := range cw {
				sum += w
			}
			for i := range weights {
				weights[i] = mulSat(weights[i], sum)
			}
			continue
		}
		// Per-key child-weight sums, keyed on projected arena columns.
		crPos := cr.Schema().Positions(common)
		rPos := r.Schema().Positions(common)
		agg := hashtab.New(len(common), cr.Len())
		sums := make([]int64, 0, cr.Len())
		for i := 0; i < cr.Len(); i++ {
			k, found := agg.Insert(cr.Row(i), crPos)
			if !found {
				sums = append(sums, 0)
			}
			sums[k] += cw[i]
		}
		for i := 0; i < r.Len(); i++ {
			var s int64 // missing key multiplies by 0, as the map read did
			if k := agg.Find(r.Row(i), rPos); k >= 0 {
				s = sums[k]
			}
			weights[i] = mulSat(weights[i], s)
		}
		agg.Release()
	}
	return weights
}

func mulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// JoinSizeOf returns the natural-join size of an ad-hoc list of
// relations (duplicates within each relation are ignored). It builds a
// synthetic query sharing the relations' attribute-id space and reuses
// the Instance counting machinery; 0-ary relations act as presence
// markers (nonempty: neutral, empty: annihilating).
func JoinSizeOf(rels []*Relation) int64 {
	if len(rels) == 0 {
		return 1
	}
	q := hypergraph.NewQuery("adhoc")
	for i, r := range rels {
		q.AddEdgeVars(fmt.Sprintf("L%d", i), hypergraph.NewVarSet(r.Schema().Attrs()...))
	}
	in := &Instance{Query: q, Relations: rels}
	return in.JoinSize()
}

// semiJoinReduce removes all dangling tuples with two passes of
// semi-joins over the join tree (Yannakakis phase 1; the paper's
// Section 2 "Semi-Join" primitive composed leaf-to-root and back).
func semiJoinReduce(q *hypergraph.Query, tree *hypergraph.JoinTree, rels []*Relation) []*Relation {
	out := make([]*Relation, len(rels))
	copy(out, rels)
	// Bottom-up: parent ⋉ child after child is fully reduced. A parent
	// with several children keeps a row in one pass only if every child
	// has a partner for it: reducing the children first never reads
	// out[e], so this is exactly the chain of per-child semi-joins,
	// without an intermediate per child.
	var up func(e int)
	up = func(e int) {
		cs := tree.Children(e)
		for _, c := range cs {
			up(c)
		}
		if len(cs) > 1 {
			out[e] = semiJoinAll(out[e], out, cs)
			return
		}
		for _, c := range cs {
			out[e] = out[e].SemiJoin(out[c])
		}
	}
	// Top-down: child ⋉ parent.
	var down func(e int)
	down = func(e int) {
		for _, c := range tree.Children(e) {
			out[c] = out[c].SemiJoin(out[e])
			down(c)
		}
	}
	for _, root := range tree.Roots() {
		up(root)
		down(root)
	}
	return out
}

// semiJoinAll returns the rows of r with a partner in every rels[c],
// c in cs, on their common attributes — r.SemiJoin(rels[cs[0]]).
// SemiJoin(rels[cs[1]])... in one pass. A child sharing no attribute
// with r passes every row when nonempty and none when empty, as
// SemiJoin does.
func semiJoinAll(r *Relation, rels []*Relation, cs []int) *Relation {
	type probe struct {
		table *hashtab.Table
		rPos  []int
	}
	probes := make([]probe, 0, len(cs))
	for _, c := range cs {
		s := rels[c]
		common := r.schema.Common(s.schema)
		if len(common) == 0 {
			if s.Len() == 0 {
				return New(r.schema)
			}
			continue
		}
		probes = append(probes, probe{s.indexOn(s.schema.Positions(common)).table, r.schema.Positions(common)})
	}
	out := New(r.schema)
rows:
	for i := 0; i < r.rows; i++ {
		t := r.Row(i)
		for _, p := range probes {
			if p.table.Find(t, p.rPos) < 0 {
				continue rows
			}
		}
		out.Add(t)
	}
	return out
}

// SemiJoinReduce returns a copy of the instance with dangling tuples
// removed; it requires an acyclic query.
func (in *Instance) SemiJoinReduce() (*Instance, error) {
	tree, ok := hypergraph.GYO(in.Query)
	if !ok {
		return nil, fmt.Errorf("relation: semi-join reduction needs an acyclic query, %s is cyclic", in.Query.Name())
	}
	rels := make([]*Relation, len(in.Relations))
	for i, r := range in.Relations {
		rels[i] = r.Dedup()
	}
	return &Instance{Query: in.Query, Relations: semiJoinReduce(in.Query, tree, rels)}, nil
}
