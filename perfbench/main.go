// Command perfbench is the repository's end-to-end benchmark. It
// generates one workload from a seed, drives the public entry points
// (coverpack.ExecuteOpts; for the sweep also coverpack.LowerBound and
// internal/sched.Run), checks every run against the sequential oracle
// and prints one JSON result line.
//
//	bash perfbench/run.sh --workload square-zipf-skew --seed 1 --seconds 18 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced. With --trace 1 a separate run records a span around every
// harness call into the program, attaches a TraceCollector to every
// execution and snapshots the metrics registry around each call; the
// result then carries the per-layer metrics, and the spans are written
// to the output directory when the benchmark ends.
//
// Load model: closed loop, one client. Workloads square-zipf-skew,
// path4-zipf and path4-zipf-spill run one ExecuteOpts at
// Workers = NumCPU; catalog-sweep runs its cells through sched.Run at
// NumCPU run-workers, each at Workers = 1. BENCHMARK.json lists the
// workloads and metrics; the metric lists below must match it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"coverpack"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	commit   string
	sizes    sizes
	// wrongCount is added to every oracle count; the self-test uses it
	// to check that a wrong expectation is reported as failures.
	wrongCount int64
}

// numSetups is the number of cold setups whose median is setup_s.
const numSetups = 5

type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"max_load", "tuples"},
	{"rounds", "count"},
}

// phaseMetrics maps mpc.phase_s metric names to the phase labels of
// coverpack_mpc_phase_seconds they sum, in inclusive seconds per run: a
// phase's time includes the phases nested in it, and parallel branches
// add up. A label ending in a space is a prefix naming a family of
// numbered phases ("stratum 0", "stratum 1", ...).
var phaseMetrics = []struct{ metric, label string }{
	{"mpc.phase_s.statistics", "statistics"},
	{"mpc.phase_s.reduce-by-key", "reduce-by-key"},
	{"mpc.phase_s.semi-join-reduce", "semi-join reduce"},
	{"mpc.phase_s.heavy-light-split", "heavy/light split"},
	{"mpc.phase_s.light-branch", "light branch"},
	{"mpc.phase_s.core-path-optimal", "core path-optimal"},
	{"mpc.phase_s.component-branch", "component branch"},
	{"mpc.phase_s.hypercube-route", "hypercube route"},
	{"mpc.phase_s.stratum", "stratum "},
	{"mpc.phase_s.twig", "twig "},
}

var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"workload.gen_s", "s"},
		{"workload.input_tuples", "tuples"},
		{"plan.compile_cold_s", "s"},
		{"plan.compile_warm_s", "s"},
		{"plan.hits", "count"},
		{"plan.misses", "count"},
		{"plan.iso_hits", "count"},
		{"lp.simplex_runs", "count"},
		{"mpc.rounds", "count"},
		{"mpc.units", "tuples"},
		{"mpc.max_load", "tuples"},
		{"mpc.load_over_bound", "ratio"},
		{"mpc.exchange_cache.hit_ratio", "ratio"},
	}
	for _, pm := range phaseMetrics {
		specs = append(specs, metricSpec{pm.metric, "s"})
	}
	return append(specs, []metricSpec{
		{"engine.forks", "count"},
		{"engine.seq_fallbacks", "count"},
		{"morsel.busy_s", "s"},
		{"morsel.steals", "count"},
		{"morsel.ranges", "count"},
		{"morsel.busy_over_capacity", "ratio"},
		{"relation.oracle_join_s", "s"},
		{"relation.par_kernels", "count"},
		{"relation.seq_cutoffs", "count"},
		{"stream.chunks", "count"},
		{"stream.spills", "count"},
		{"pool.arena.hit_ratio", "ratio"},
		{"pool.hash.hit_ratio", "ratio"},
		{"pool.send.hit_ratio", "ratio"},
		{"spill.parks", "count"},
		{"spill.pageins", "count"},
		{"spill.bytes_written", "bytes"},
		{"spill.bytes_read", "bytes"},
		{"spill.retained_peak_bytes", "bytes"},
		{"spill.peak_over_budget", "ratio"},
		{"spill.over_budget_frac", "ratio"},
		{"sched.cells", "count"},
		{"sched.gate_waits", "count"},
		{"sched.cell_s_sum", "s"},
		{"sched.cell_s_max", "s"},
		{"sched.max_concurrent", "count"},
		{"lowerbound.minload_s", "s"},
		{"lowerbound.calls", "count"},
		{"runtime.gc_cpu_s", "s"},
		{"runtime.gc_cycles", "count"},
		{"trace.overhead_s", "s"},
		{"trace.wall_s", "s"},
	}...)
}()

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(execute(cfg, os.Stdout, os.Stderr))
}

func parseFlags(args []string) (config, error) {
	cfg := config{sizes: fullSizes}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload generator seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds of timed runs")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	fs.StringVar(&cfg.outDir, "outdir", ".bench_build/perfbench", "directory for the run record, traces and spill files")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit of the measured sources, recorded as provenance")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = *trace == 1
	return cfg, nil
}

// provenance identifies what was measured, and where.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Sizes      sizes   `json:"sizes"`
	NumCPU     int     `json:"numcpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the run record written to the output directory.
type record struct {
	Provenance provenance `json:"provenance"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	FailedFrac float64    `json:"failed_frac"`
	OverBudget int        `json:"spill_runs_over_budget"`
	// BudgetRuns are the runs at the workload's Workers, which the spill
	// budget count covers: every run but the sequential warm-up.
	BudgetRuns int `json:"spill_budget_runs"`
	// SetupPeakRSS is the resident high-water mark of the setups and the
	// oracle, before the timed runs.
	SetupPeakRSS float64            `json:"setup_peak_rss_mb"`
	Errors       []string           `json:"errors,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
	// Timings are the distributions behind the median metrics.
	Timings map[string]summary `json:"timings"`
	Samples []sample           `json:"samples"`
	Spans   []span             `json:"spans,omitempty"`
	// Phases is the PhaseTable of each cell in the first traced run.
	Phases map[string][]coverpack.PhaseRow `json:"phases,omitempty"`
}

// execute runs the benchmark and prints its result line. It returns
// the process exit code.
func execute(cfg config, stdout, stderr io.Writer) int {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{cfg: cfg, w: w, nproc: runtime.NumCPU()}
	if cfg.trace {
		b.tr = newTracer()
	}
	if w.spill {
		dir, err := os.MkdirTemp(cfg.outDir, "spill-")
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		b.spillDir = dir
	}
	rec, err := measure(b, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec.Provenance = provenance{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Sizes: cfg.sizes, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: cfg.commit,
	}
	if b.tr != nil {
		rec.Spans = b.tr.spans
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	out := output{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		out.Metrics[s.name] = metricValue{Value: rec.Metrics[s.name], Unit: s.unit}
		fmt.Fprintf(stderr, "%-32s %16.6g %s\n", s.name, rec.Metrics[s.name], s.unit)
	}
	fmt.Fprintf(stderr, "attempted %d, failed %d (failed_frac %.3g); numcpu %d, GOMAXPROCS %d, %s, commit %s\n",
		rec.Attempted, rec.Failed, rec.FailedFrac, rec.Provenance.NumCPU, rec.Provenance.GOMAXPROCS,
		rec.Provenance.GoVersion, cfg.commit)
	if w.spill {
		fmt.Fprintf(stderr, "spill budget %d B exceeded in %d of %d runs\n", spillBudget, rec.OverBudget, rec.BudgetRuns)
	}
	traceFlag := 0
	if cfg.trace {
		traceFlag = 1
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, traceFlag))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measure makes the setups, the oracle and the timed runs of one
// benchmark invocation and computes its metrics.
func measure(b *bench, stderr io.Writer) (*record, error) {
	rec := &record{Metrics: map[string]float64{}, Timings: map[string]summary{}}
	tally := func(p *pass, err error) {
		rec.Attempted++
		if err == nil {
			err = b.check(p)
		}
		if !b.warm {
			rec.BudgetRuns++
		}
		if b.overBudget(p) {
			rec.OverBudget++
		}
		if err != nil {
			rec.Failed++
			if len(rec.Errors) < 10 {
				rec.Errors = append(rec.Errors, err.Error())
				fmt.Fprintln(stderr, "perfbench: run failed:", err)
			}
		}
	}

	// The warm-up is one untraced setup whose run is sequential. The
	// metrics registry creates the series of an mpc phase label on its
	// first use, and that creation races: when two goroutines meet a new
	// label at once, internal/metrics HistogramVec.With panics with
	// "duplicate registration". Meeting every label first in one
	// goroutine keeps that once-per-process defect out of the measured
	// runs. The warm-up run is checked against the oracle like any other.
	tr := b.tr
	b.tr, b.warm = nil, true
	wu, err := b.setup()
	if err != nil {
		return nil, err
	}
	b.tr = tr
	rec.Metrics["relation.oracle_join_s"] = b.oracle()
	tally(wu.first, wu.firstErr)
	b.warm = false

	// Every setup and run ends by collecting its garbage, inside its
	// timing, so the next one starts from a collected heap: garbage left
	// by the one before neither paces its collections nor empties its
	// pools.
	var setups []setupCost
	for i := 0; i < numSetups; i++ {
		sc, err := b.setup()
		if err != nil {
			return nil, err
		}
		tally(sc.first, sc.firstErr)
		setups = append(setups, sc)
	}
	last := setups[len(setups)-1]
	pick := func(f func(setupCost) float64) []float64 {
		xs := make([]float64, len(setups))
		for i, sc := range setups {
			xs[i] = f(sc)
		}
		return xs
	}
	rec.Timings["setup_s"] = summarize(pick(func(s setupCost) float64 { return s.total }))
	m := rec.Metrics
	m["setup_s"] = rec.Timings["setup_s"].Median
	m["workload.gen_s"] = median(pick(func(s setupCost) float64 { return s.gen }))
	m["plan.compile_cold_s"] = median(pick(func(s setupCost) float64 { return s.compileCold }))
	m["plan.compile_warm_s"] = median(pick(func(s setupCost) float64 { return s.compileWarm }))
	m["plan.hits"] = float64(last.plan.Hits)
	m["plan.misses"] = float64(last.plan.Misses)
	m["plan.iso_hits"] = float64(last.plan.IsoHits)
	m["lp.simplex_runs"] = float64(last.simplexRuns)
	for _, in := range b.insts {
		for r := 0; r < in.Query.NumEdges(); r++ {
			m["workload.input_tuples"] += float64(in.Rel(r).Len())
		}
	}

	rec.SetupPeakRSS = peakRSSMiB()
	var untraced []sample
	var traced []tracedRun
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if time.Now().After(deadline) && len(untraced) >= 3 && (!b.cfg.trace || len(traced) >= 3) {
			break
		}
		if b.cfg.trace && i%2 == 1 {
			tr, err := b.tracedRun()
			if err != nil {
				return nil, err
			}
			tally(tr.pass, tr.err)
			traced = append(traced, tr)
			continue
		}
		mt, err := startMeter()
		if err != nil {
			return nil, err
		}
		p, err := b.run(nil)
		s := mt.stop()
		tally(p, err)
		untraced = append(untraced, s)
	}
	rec.Samples = untraced
	per := map[string][]float64{}
	for _, s := range untraced {
		per["wall_s"] = append(per["wall_s"], s.Wall)
		per["cpu_s"] = append(per["cpu_s"], s.CPU)
		per["alloc_mb"] = append(per["alloc_mb"], s.Alloc/(1<<20))
		per["peak_rss_mb"] = append(per["peak_rss_mb"], s.PeakRSS)
	}
	for name, xs := range per {
		rec.Timings[name] = summarize(xs)
		m[name] = rec.Timings[name].Median
	}
	if b.ref != nil {
		maxLoad, rounds, units := b.ref.totals()
		m["max_load"], m["rounds"] = float64(maxLoad), float64(rounds)
		m["mpc.max_load"], m["mpc.rounds"], m["mpc.units"] = float64(maxLoad), float64(rounds), float64(units)
		for i := range b.cells {
			if c := &b.cells[i]; c.in != nil {
				if r := loadOverBound(c, b.ref.cells[i].stats.MaxLoad); r > m["mpc.load_over_bound"] {
					m["mpc.load_over_bound"] = r
				}
			}
		}
	}
	if rec.Attempted > 0 {
		rec.FailedFrac = float64(rec.Failed) / float64(rec.Attempted)
	}
	if rec.BudgetRuns > 0 {
		m["spill.over_budget_frac"] = float64(rec.OverBudget) / float64(rec.BudgetRuns)
	}
	if b.cfg.trace {
		b.layerMetrics(rec, traced)
	}
	return rec, nil
}
