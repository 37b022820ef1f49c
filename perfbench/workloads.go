package main

import (
	"fmt"
	"math"
	"math/big"

	"coverpack"
)

// sizes are the generator input sizes of the workloads. The self-test
// runs every workload at tinySizes; the benchmark always runs fullSizes.
type sizes struct {
	Square int `json:"square_n"`
	Path   int `json:"path4_n"`
	Sweep  int `json:"sweep_n"`
}

var (
	fullSizes = sizes{Square: 4000, Path: 20000, Sweep: 200}
	tinySizes = sizes{Square: 150, Path: 400, Sweep: 24}
)

// zipfSkew is the Zipf exponent of every workload's generator; the
// domain is always 5n.
const zipfSkew = 1.1

// spillBudget is the per-run resident budget of the spill workload's
// exchange outputs (ExecOptions.SpillBudgetBytes).
const spillBudget = 1 << 20

// workload is one named input set and the way the harness drives it.
type workload struct {
	name string
	// queries are the catalog names whose Zipf instances the workload
	// generates.
	queries []string
	n       func(sizes) int
	// instances is the number of independent instances per query; the
	// r-th is generated from instanceSeed(seed, r). Several instances
	// average out how much the work of small inputs depends on the seed.
	instances int
	// cells lists the executions of one run on instance in of query q,
	// generated from seed.
	cells func(q *coverpack.Query, a *coverpack.Analysis, in *coverpack.Instance, n int, seed uint64) []cell
	// sweep runs the cells through sched.Run at nproc run-workers, each
	// cell at Workers=1; otherwise the single cell runs at Workers=nproc.
	sweep bool
	// spill runs with spilling forced on into a fresh directory under
	// the output directory, at spillBudget.
	spill bool
}

// cell is one execution inside a run: an ExecuteOpts call, or a
// LowerBound call when in is nil.
type cell struct {
	key string
	q   *coverpack.Query
	in  *coverpack.Instance
	alg coverpack.Algorithm
	p   int
	// x is the exponent of the load bound N/p^{1/x} the algorithm
	// meets: ψ* for hypercube-skew-aware, ρ* for the multi-round ones.
	x float64
	// lbN and seed are LowerBound's instance size and seed.
	lbN  int
	seed uint64
}

// instanceSeed is the generator seed of a workload's r-th instance of
// each query; instance 0 uses the benchmark's seed itself.
func instanceSeed(seed uint64, r int) uint64 { return seed ^ uint64(r)<<32 }

func ratFloat(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}

func execCell(q *coverpack.Query, in *coverpack.Instance, alg coverpack.Algorithm, p int, x float64) cell {
	return cell{key: fmt.Sprintf("%s/%s/p%d", q.Name(), alg, p), q: q, in: in, alg: alg, p: p, x: x}
}

var workloads = []workload{
	{
		name:      "square-zipf-skew",
		queries:   []string{"square"},
		n:         func(s sizes) int { return s.Square },
		instances: 1,
		cells: func(q *coverpack.Query, a *coverpack.Analysis, in *coverpack.Instance, _ int, _ uint64) []cell {
			return []cell{execCell(q, in, coverpack.AlgSkewAware, 16, ratFloat(a.Psi))}
		},
	},
	{
		name:      "path4-zipf",
		queries:   []string{"path-4"},
		n:         func(s sizes) int { return s.Path },
		instances: 1,
		cells: func(q *coverpack.Query, a *coverpack.Analysis, in *coverpack.Instance, _ int, _ uint64) []cell {
			return []cell{execCell(q, in, coverpack.AlgAcyclicOptimal, 16, ratFloat(a.Rho))}
		},
	},
	{
		name:      "path4-zipf-spill",
		queries:   []string{"path-4"},
		n:         func(s sizes) int { return s.Path },
		instances: 1,
		cells: func(q *coverpack.Query, a *coverpack.Analysis, in *coverpack.Instance, _ int, _ uint64) []cell {
			return []cell{execCell(q, in, coverpack.AlgAcyclicOptimal, 16, ratFloat(a.Rho))}
		},
		spill: true,
	},
	{
		name:    "catalog-sweep",
		queries: catalogNames(),
		n:       func(s sizes) int { return s.Sweep },
		cells: func(q *coverpack.Query, a *coverpack.Analysis, in *coverpack.Instance, n int, seed uint64) []cell {
			var cs []cell
			for _, p := range []int{4, 16, 64} {
				cs = append(cs, execCell(q, in, coverpack.AlgSkewAware, p, ratFloat(a.Psi)))
				if a.Acyclic {
					cs = append(cs, execCell(q, in, coverpack.AlgAcyclicOptimal, p, ratFloat(a.Rho)))
				}
				if a.LoomisWhitney {
					cs = append(cs, execCell(q, in, coverpack.AlgLoomisWhitney, p, ratFloat(a.Rho)))
				}
			}
			if a.EdgePackingProvable {
				cs = append(cs, cell{key: q.Name() + "/lowerbound/p16", q: q, p: 16, lbN: n, seed: seed})
			}
			return cs
		},
		instances: 3,
		sweep:     true,
	},
}

// catalogNames lists every catalog query, in catalog order.
func catalogNames() []string {
	var names []string
	for _, e := range coverpack.Catalog() {
		names = append(names, e.Query.Name())
	}
	return names
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// catalogQuery returns a fresh copy of the named catalog query.
func catalogQuery(name string) (*coverpack.Query, error) {
	for _, e := range coverpack.Catalog() {
		if e.Query.Name() == name {
			return e.Query, nil
		}
	}
	return nil, fmt.Errorf("no catalog query %q", name)
}

// loadOverBound is the measured load L over the bound N/p^{1/x}.
func loadOverBound(c *cell, maxLoad int) float64 {
	bound := float64(c.in.N()) / math.Pow(float64(c.p), 1/c.x)
	return float64(maxLoad) / bound
}
