package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"coverpack"
	"coverpack/internal/sched"
)

// bench is one workload's generated inputs, expectations and runner.
type bench struct {
	cfg   config
	w     *workload
	nproc int
	tr    *tracer // nil when untraced

	queries []*coverpack.Query
	insts   []*coverpack.Instance
	cells   []cell
	// want is the oracle count of each execution cell (unused for
	// lower-bound cells).
	want []int64
	// ref is the first successful run; every later run must repeat its
	// Stats and MinLoad exactly.
	ref      *pass
	spillDir string
	// warm makes every execution sequential (Workers=1, sweep cells
	// one at a time), for the warm-up pass.
	warm bool
}

// result is the outcome of one cell.
type result struct {
	emitted int64
	stats   coverpack.Stats
	minLoad int
	cache   coverpack.CacheStats
	phases  []coverpack.PhaseRow // traced runs only
	seconds float64              // harness-timed sweep cell, traced runs only
}

// pass is the outcome of one run: every cell of the workload once.
type pass struct {
	cells []result
	sched sched.Stats
	// spillPeak is SpillRetainedPeakBytes after the run (reset before).
	spillPeak int64
}

// setupCost is what one cold setup measured.
type setupCost struct {
	total, gen, compileCold, compileWarm float64
	plan                                 coverpack.PlanCompileStats
	simplexRuns                          uint64
	// first is the cold run and firstErr its error.
	first    *pass
	firstErr error
}

// setup generates the inputs from the seed, compiles every query on
// reset compile caches and makes the first (cold) run. The error
// reports only a failed generation or compilation.
func (b *bench) setup() (setupCost, error) {
	var sc setupCost
	coverpack.ResetPlanCompileCache()
	coverpack.ResetAnalyzeCache()
	lp0 := coverpack.LPMemoCacheStats().SimplexRuns
	root := b.tr.root("setup", true)
	defer root.end()
	start := time.Now()

	n := b.w.n(b.cfg.sizes)
	b.queries, b.insts = b.queries[:0], b.insts[:0]
	for _, name := range b.w.queries {
		q, err := catalogQuery(name)
		if err != nil {
			return sc, err
		}
		b.queries = append(b.queries, q)
		for r := 0; r < b.w.instances; r++ {
			sp := root.child("coverpack.Zipf", false)
			b.insts = append(b.insts, coverpack.Zipf(q, n, int64(5*n), zipfSkew, instanceSeed(b.cfg.seed, r)))
			sp.end()
		}
	}
	sc.gen = time.Since(start).Seconds()

	cstart := time.Now()
	analyses, err := b.compile(root)
	if err != nil {
		return sc, err
	}
	sc.compileCold = time.Since(cstart).Seconds()
	b.cells = b.cells[:0]
	for i, in := range b.insts {
		q, r := b.queries[i/b.w.instances], i%b.w.instances
		cells := b.w.cells(q, analyses[i/b.w.instances], in, n, instanceSeed(b.cfg.seed, r))
		if b.w.instances > 1 {
			for j := range cells {
				cells[j].key += fmt.Sprintf("#%d", r)
			}
		}
		b.cells = append(b.cells, cells...)
	}

	sc.first, sc.firstErr = b.run(root)
	runtime.GC()
	sc.total = time.Since(start).Seconds()
	sc.plan = coverpack.PlanCompileCacheStats()
	sc.simplexRuns = coverpack.LPMemoCacheStats().SimplexRuns - lp0

	wstart := time.Now()
	if _, err := b.compile(root); err != nil {
		return sc, err
	}
	sc.compileWarm = time.Since(wstart).Seconds()
	return sc, nil
}

// compile runs CompileQuery and Analyze on every query.
func (b *bench) compile(root *openSpan) ([]*coverpack.Analysis, error) {
	out := make([]*coverpack.Analysis, len(b.queries))
	for i, q := range b.queries {
		sp := root.child("coverpack.CompileQuery", false)
		_, err := coverpack.CompileQuery(q)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", q.Name(), err)
		}
		sp = root.child("coverpack.Analyze", false)
		out[i], err = coverpack.Analyze(q)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", q.Name(), err)
		}
	}
	return out, nil
}

// oracle computes the expected emitted count of every execution cell
// with the sequential Instance.JoinSize, once per instance, and returns
// the seconds it took.
func (b *bench) oracle() float64 {
	root := b.tr.root("oracle", true)
	defer root.end()
	start := time.Now()
	counts := map[*coverpack.Instance]int64{}
	for _, in := range b.insts {
		sp := root.child("Instance.JoinSize", false)
		counts[in] = in.JoinSize() + b.cfg.wrongCount
		sp.end()
	}
	b.want = make([]int64, len(b.cells))
	for i, c := range b.cells {
		if c.in != nil {
			b.want[i] = counts[c.in]
		}
	}
	elapsed := time.Since(start).Seconds()
	runtime.GC()
	return elapsed
}

// run executes every cell of the workload once. parent is the span the
// run hangs under; a nil parent runs untraced, without a Recorder.
func (b *bench) run(parent *openSpan) (*pass, error) {
	p := &pass{cells: make([]result, len(b.cells))}
	if b.w.spill {
		coverpack.ResetSpillRetainedPeak()
	}
	var err error
	if b.w.sweep {
		sp := parent.child("sched.Run", parent != nil)
		runWorkers := b.nproc
		if b.warm {
			runWorkers = 1
		}
		p.sched, err = sched.Run(b.schedCells(sp, p), sched.Options{Workers: runWorkers})
		sp.end()
	} else {
		err = b.runCell(parent, 0, &p.cells[0])
	}
	if b.w.spill {
		p.spillPeak = coverpack.SpillRetainedPeakBytes()
		if cerr := b.clearSpillDir(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return p, err
}

func (b *bench) schedCells(parent *openSpan, p *pass) []sched.Cell {
	cells := make([]sched.Cell, len(b.cells))
	for i := range b.cells {
		cells[i] = sched.Cell{
			Key: b.cells[i].key,
			Run: func() error { return b.runCell(parent, i, &p.cells[i]) },
		}
	}
	return cells
}

// runCell executes cell i into r: in a sweep as one sched cell at
// Workers=1, otherwise alone at Workers=nproc with registry deltas on
// its span. A panic in the program is returned as an error.
func (b *bench) runCell(parent *openSpan, i int, r *result) (err error) {
	c := &b.cells[i]
	name := "coverpack.ExecuteOpts"
	if c.in == nil {
		name = "coverpack.LowerBound"
	}
	workers := b.nproc
	if b.warm {
		workers = 1
	}
	if b.w.sweep {
		workers = 1
		parent = parent.child("cell "+c.key, false)
		defer func() { r.seconds = parent.end() }()
	}
	sp := parent.child(name, !b.w.sweep)
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%s: panic: %v", c.key, v)
		}
		sp.end()
	}()
	if c.in == nil {
		rep, err := coverpack.LowerBound(c.q, c.lbN, c.p, c.seed)
		if err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
		r.minLoad = rep.MinLoad
		return nil
	}
	eo := coverpack.ExecOptions{Workers: workers, PlanStats: &r.cache}
	var col *coverpack.TraceCollector
	if parent != nil {
		col = coverpack.NewTraceCollector()
		eo.Recorder = col
	}
	if b.w.spill {
		eo.Spilling, eo.SpillDir, eo.SpillBudgetBytes = coverpack.SpillOn, b.spillDir, spillBudget
	}
	rep, err := coverpack.ExecuteOpts(c.alg, c.in, c.p, eo)
	if err != nil {
		return fmt.Errorf("%s: %w", c.key, err)
	}
	r.emitted, r.stats = rep.Emitted, rep.Stats
	if col != nil {
		r.phases = coverpack.PhaseTable(col.Root())
	}
	return nil
}

// clearSpillDir removes whatever a run left in the spill directory and
// reports it as an error: every run must clean up after itself.
func (b *bench) clearSpillDir() error {
	ents, err := os.ReadDir(b.spillDir)
	if err != nil {
		return fmt.Errorf("spill directory: %w", err)
	}
	for _, e := range ents {
		os.RemoveAll(filepath.Join(b.spillDir, e.Name()))
	}
	if len(ents) > 0 {
		return fmt.Errorf("%d entries left in the spill directory", len(ents))
	}
	return nil
}

// check compares a run with the oracle and, unless it is the warm-up,
// with the reference run.
func (b *bench) check(p *pass) error {
	for i, c := range b.cells {
		r := p.cells[i]
		if c.in != nil && r.emitted != b.want[i] {
			return fmt.Errorf("%s: emitted %d, oracle %d", c.key, r.emitted, b.want[i])
		}
		if b.warm {
			continue
		}
		if b.ref == nil {
			continue
		}
		ref := b.ref.cells[i]
		if r.stats.Rounds != ref.stats.Rounds || r.stats.MaxLoad != ref.stats.MaxLoad || r.stats.TotalUnits != ref.stats.TotalUnits {
			return fmt.Errorf("%s: stats %v, first run %v", c.key, r.stats, ref.stats)
		}
		if r.minLoad != ref.minLoad {
			return fmt.Errorf("%s: MinLoad %d, first run %d", c.key, r.minLoad, ref.minLoad)
		}
	}
	if b.ref == nil && !b.warm {
		b.ref = p
	}
	return nil
}

// overBudget reports whether a spill run's retained peak exceeded the
// budget. The sequential warm-up is not a run at the workload's
// Workers, so it is left out of the budget count.
func (b *bench) overBudget(p *pass) bool {
	return b.w.spill && !b.warm && p.spillPeak > spillBudget
}

// totals sums the load and rounds of a run's execution cells.
func (p *pass) totals() (maxLoad, rounds int, units int64) {
	for _, r := range p.cells {
		maxLoad += r.stats.MaxLoad
		rounds += r.stats.Rounds
		units += r.stats.TotalUnits
	}
	return
}
