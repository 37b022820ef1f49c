package primitives

import (
	"strconv"
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

// The single-pass loops must reproduce the operator compositions they
// replace row for row: Degrees' per-server value count against
// ReduceByKey over the (value, 1) projection, and the multi-child
// semi-join pass of the full reduction against the chain of sequential
// SemiJoin calls. SelectEqProject is pinned against SelectEq+Project
// alongside them.

// fusedSizes are the fragment sizes the property test covers: empty,
// one row, and both sides of one and of three 256-row blocks.
var fusedSizes = []int{0, 1, 255, 256, 257, 3*256 + 1}

// runsValue is row i's value in the property test: runs of five equal
// values, 61 distinct, so every value recurs and the run over rows
// 255–259 straddles the 256-row boundary.
func runsValue(i int) relation.Value { return relation.Value(i/5) % 61 }

// sameRel fails unless got reproduces want row for row.
func sameRel(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("%s: schema %v, want %v", label, got.Schema(), want.Schema())
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if !got.Row(i).Equal(want.Row(i)) {
			t.Fatalf("%s: row %d is %v, want %v", label, i, got.Row(i), want.Row(i))
		}
	}
}

// onesOf is the (attr, countAttr=1) projection of f.
func onesOf(f *relation.Relation, attr, countAttr int) *relation.Relation {
	out := relation.New(relation.NewSchema(attr, countAttr))
	ap, cp := out.Schema().Pos(attr), out.Schema().Pos(countAttr)
	sp := f.Schema().Pos(attr)
	nt := make(relation.Tuple, 2)
	nt[cp] = 1
	for i := 0; i < f.Len(); i++ {
		nt[ap] = f.Row(i)[sp]
		out.Add(nt)
	}
	return out
}

// checkDegrees compares Degrees on frags (one per server) with
// ReduceByKey over their (value, 1) projections, both per server
// before the exchange and on the final partitioned output and cost.
func checkDegrees(t *testing.T, frags []*relation.Relation) {
	t.Helper()
	const attr = 0
	schema := relation.NewSchema(attr, gAttr)
	for i, f := range frags {
		want := localAggregate(onesOf(f, attr, gAttr), []int{attr}, gAttr, schema)
		sameRel(t, "pre-aggregate of fragment "+strconv.Itoa(i), countValues(f, attr, schema), want)
	}
	run := func(degrees bool) (*mpc.DistRelation, mpc.Stats) {
		c := mpc.NewCluster(len(frags))
		g := c.Root()
		d := mpc.NewDist(frags[0].Schema(), len(frags))
		for i, f := range frags {
			d.Frags[i] = f.Clone()
		}
		if degrees {
			return Degrees(g, d, attr, gAttr), c.Stats()
		}
		ones := g.Local(d, func(_ int, f *relation.Relation) *relation.Relation { return onesOf(f, attr, gAttr) })
		return ReduceByKey(g, ones, []int{attr}, gAttr), c.Stats()
	}
	got, gotStats := run(true)
	want, wantStats := run(false)
	for i := range want.Frags {
		sameRel(t, "Degrees server "+strconv.Itoa(i), got.Frags[i], want.Frags[i])
	}
	if gotStats != wantStats {
		t.Fatalf("Degrees cost %v, ReduceByKey over ones %v", gotStats, wantStats)
	}
}

// starQuery has a join-tree node with several children whatever root
// GYO picks: R0 shares one attribute with each of R1, R2 and R3.
func starQuery() *hypergraph.Query {
	return hypergraph.MustParse("star", "R0(A,B,C) R1(A,D) R2(B,E) R3(C,F)")
}

// chainReduce is the full reduction by sequential SemiJoin calls, one
// per child, over the same join tree semiJoinReduce walks.
func chainReduce(tree *hypergraph.JoinTree, rels []*relation.Relation) []*relation.Relation {
	out := make([]*relation.Relation, len(rels))
	for i, r := range rels {
		out[i] = r.Dedup()
	}
	var up, down func(e int)
	up = func(e int) {
		for _, c := range tree.Children(e) {
			up(c)
			out[e] = out[e].SemiJoin(out[c])
		}
	}
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

// checkSemiJoinReduce compares the instance's full reduction with
// chainReduce, requiring that some node of the tree has several
// children so the single-pass path runs.
func checkSemiJoinReduce(t *testing.T, in *relation.Instance) {
	t.Helper()
	tree, ok := hypergraph.GYO(in.Query)
	if !ok {
		t.Fatal("star query is cyclic")
	}
	multi := false
	for e := 0; e < in.Query.NumEdges(); e++ {
		multi = multi || len(tree.Children(e)) > 1
	}
	if !multi {
		t.Fatalf("join tree %v has no node with several children", tree)
	}
	got, err := in.SemiJoinReduce()
	if err != nil {
		t.Fatal(err)
	}
	want := chainReduce(tree, in.Relations)
	for e := range want {
		sameRel(t, "reduced "+in.Query.Edge(e).Name, got.Relations[e], want[e])
	}
}

// multiChildParent returns the edge of the star query's join tree with
// the most children.
func multiChildParent(q *hypergraph.Query) int {
	tree, _ := hypergraph.GYO(q)
	best := 0
	for e := 0; e < q.NumEdges(); e++ {
		if len(tree.Children(e)) > len(tree.Children(best)) {
			best = e
		}
	}
	return best
}

func TestFusedLoopsMatchOperatorChains(t *testing.T) {
	frags := make([]*relation.Relation, len(fusedSizes))
	for i, n := range fusedSizes {
		f := relation.New(relation.NewSchema(0, wAttr))
		for j := 0; j < n; j++ {
			f.AddValues(runsValue(j+i), relation.Value(j))
		}
		frags[i] = f
	}
	checkDegrees(t, frags)

	q := starQuery()
	parent := multiChildParent(q)
	for _, n := range fusedSizes {
		in := relation.NewInstance(q)
		for e, r := range in.Relations {
			rows := 300
			if e == parent {
				rows = n
			}
			tup := make(relation.Tuple, r.Schema().Len())
			for i := 0; i < rows; i++ {
				// Pairs of equal rows, so the reduction's dedup matters;
				// columns fall in different domains so every child
				// drops some parent rows.
				for j := range tup {
					tup[j] = runsValue(i/2*(j+1)) % relation.Value(23+7*j+e)
				}
				r.Add(tup)
			}
		}
		checkSemiJoinReduce(t, in)
	}
}

// FuzzFusedLoops decodes fragments and a star instance from the input
// and checks Degrees, the multi-child semi-join pass and
// SelectEqProject against their operator chains. Values fold into a
// small domain so duplicates and partners occur; fragment sizes reach
// past three 256-row blocks.
func FuzzFusedLoops(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 86, 1, 255, 7, 2, 9, 200, 4, 4, 4, 1})
	f.Add([]byte{0, 255, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 40, 13, 13, 0, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return int(b)
		}
		domain := relation.Value(1 + next()%29)
		value := func() relation.Value { return relation.Value(next()) % domain }

		p := 1 + next()%6
		frags := make([]*relation.Relation, p)
		for i := range frags {
			frags[i] = relation.New(relation.NewSchema(0, wAttr))
			for j, n := 0, 3*next()+next()%4; j < n; j++ {
				frags[i].AddValues(value(), relation.Value(j))
			}
		}
		checkDegrees(t, frags)

		in := relation.NewInstance(starQuery())
		for _, r := range in.Relations {
			tup := make(relation.Tuple, r.Schema().Len())
			for i, n := 0, 3*next(); i < n; i++ {
				for j := range tup {
					tup[j] = value()
				}
				r.Add(tup)
			}
		}
		checkSemiJoinReduce(t, in)

		r, v := in.Relations[0], value()
		sameRel(t, "SelectEqProject", r.SelectEqProject(0, v, 2, 1), r.SelectEq(0, v).Project(2, 1))
	})
}

// SelectEqProject validates like the two operators it fuses — the
// selection attribute first, then every projection attribute even
// when nothing survives — and allocates less than they do.
func TestSelectEqProjectMatchesTwoOperators(t *testing.T) {
	build := func(n int) *relation.Relation {
		r := relation.New(relation.NewSchema(1, 2))
		for i := 0; i < n; i++ {
			r.AddValues(relation.Value(i%4), relation.Value(i))
		}
		return r
	}
	ref := func(r *relation.Relation) *relation.Relation { return r.SelectEq(1, 1).Project(2) }
	for _, n := range fusedSizes {
		r := build(n)
		sameRel(t, "n="+strconv.Itoa(n), r.SelectEqProject(1, 1, 2), ref(r))
	}
	r := build(fusedSizes[len(fusedSizes)-1])
	fused := testing.AllocsPerRun(20, func() { r.SelectEqProject(1, 1, 2) })
	twoOp := testing.AllocsPerRun(20, func() { ref(r) })
	if fused >= twoOp {
		t.Fatalf("fused pass allocates %.0f times vs %.0f for SelectEq+Project", fused, twoOp)
	}
	for _, bad := range []struct {
		name string
		fn   func()
	}{
		{"selection", func() { build(0).SelectEqProject(9, 1, 2) }},
		{"projection", func() { build(0).SelectEqProject(1, 1, 9) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("missing %s attribute did not panic", bad.name)
				}
			}()
			bad.fn()
		}()
	}
}
