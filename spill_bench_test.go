// Out-of-core execution benchmarks: the same pipelines run fully
// resident and with arena segments spilling to disk under a small
// memory budget, so `go test -bench=Spill` shows what out-of-core
// placement costs (segment encode/decode plus file I/O) against what
// it buys (bounded resident bytes). `go test -run TestBenchSpillJSON
// -benchjson` writes BENCH_spill.json with ns/op, allocs/op and the
// spill I/O profile per pipeline — the committed file is generated
// with GOMAXPROCS=1 so allocs/op are deterministic.
package coverpack_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"coverpack"
	"coverpack/internal/hypergraph"
)

// spillPipelines are the benchmarked (pipeline, algorithm, instance)
// cells — two Table 1 pipelines plus a multi-join whose exchange chain
// parks many fragments per round.
type spillPipeline struct {
	name string
	alg  coverpack.Algorithm
	in   *coverpack.Instance
	p    int
}

func spillPipelines() []spillPipeline {
	return []spillPipeline{
		{"yannakakis-line3", coverpack.AlgYannakakis,
			coverpack.Uniform(hypergraph.Line3Join(), 6000, 3000, 3), 16},
		{"triangle-heavyhub", coverpack.AlgTriangle,
			coverpack.HeavyHub(hypergraph.TriangleJoin(), 6000), 8},
		{"optimal-stardual3", coverpack.AlgAcyclicOptimal,
			coverpack.Uniform(hypergraph.StarDualJoin(3), 3500, 4000, 5), 16},
	}
}

// spillBenchBudget keeps every pipeline's exchange working set above
// the budget, so the spilled mode genuinely runs out of core.
const spillBenchBudget = 16 << 10

func benchSpillRun(b *testing.B, pl spillPipeline, spilled bool) {
	b.Helper()
	b.ReportAllocs()
	eo := coverpack.ExecOptions{Spilling: coverpack.SpillOff}
	if spilled {
		dir, err := os.MkdirTemp("", "coverpack-bench-spill-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		eo = coverpack.ExecOptions{
			Spilling:         coverpack.SpillOn,
			SpillDir:         dir,
			SpillBudgetBytes: spillBenchBudget,
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := coverpack.ExecuteOpts(pl.alg, pl.in, pl.p, eo); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSpill(b *testing.B, pl spillPipeline) {
	b.Run("mode=spilled", func(b *testing.B) { benchSpillRun(b, pl, true) })
	b.Run("mode=resident", func(b *testing.B) { benchSpillRun(b, pl, false) })
}

func BenchmarkSpillYannakakisLine3(b *testing.B)  { benchSpill(b, spillPipelines()[0]) }
func BenchmarkSpillTriangleHeavyhub(b *testing.B) { benchSpill(b, spillPipelines()[1]) }
func BenchmarkSpillOptimalStardual3(b *testing.B) { benchSpill(b, spillPipelines()[2]) }

// spillModeRow is one mode's measured profile.
type spillModeRow struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// TestBenchSpillJSON measures every pipeline in both modes and writes
// BENCH_spill.json. Before timing anything it asserts the two modes
// produce identical reports (the spill difftest arms pin the full
// trace; this is the cheap guard inside the bench harness itself) and
// that the spilled mode actually parks under its budget.
// Run with: GOMAXPROCS=1 go test -run TestBenchSpillJSON -benchjson
func TestBenchSpillJSON(t *testing.T) {
	if !*benchJSON {
		t.Skip("pass -benchjson to measure spilled-vs-resident and write BENCH_spill.json")
	}
	type outRow struct {
		Pipeline          string       `json:"pipeline"`
		Spilled           spillModeRow `json:"spilled"`
		Resident          spillModeRow `json:"resident"`
		SlowdownX         float64      `json:"slowdown_x"`
		Parks             uint64       `json:"parks"`
		PageIns           uint64       `json:"pageins"`
		SpillBytesWritten uint64       `json:"spill_bytes_written"`
		SpillBytesRead    uint64       `json:"spill_bytes_read"`
		RetainedPeakBytes int64        `json:"retained_peak_bytes"`
	}
	out := struct {
		NumCPU      int      `json:"numcpu"`
		BudgetBytes int64    `json:"budget_bytes"`
		Spills      []outRow `json:"spills"`
	}{NumCPU: runtime.NumCPU(), BudgetBytes: spillBenchBudget}

	for _, pl := range spillPipelines() {
		pl := pl
		dir := t.TempDir()
		on, err := coverpack.ExecuteOpts(pl.alg, pl.in, pl.p, coverpack.ExecOptions{
			Spilling: coverpack.SpillOn, SpillDir: dir, SpillBudgetBytes: spillBenchBudget})
		if err != nil {
			t.Fatalf("%s spilled: %v", pl.name, err)
		}
		off, err := coverpack.ExecuteOpts(pl.alg, pl.in, pl.p, coverpack.ExecOptions{Spilling: coverpack.SpillOff})
		if err != nil {
			t.Fatalf("%s resident: %v", pl.name, err)
		}
		onR, offR := *on, *off
		onR.Stats.SeqFallback, offR.Stats.SeqFallback = false, false
		if onR != offR {
			t.Fatalf("%s: spilled and resident reports diverge:\n  on:  %+v\n  off: %+v", pl.name, onR, offR)
		}

		coverpack.ResetSpillStats()
		coverpack.ResetSpillRetainedPeak()
		sres := testing.Benchmark(func(b *testing.B) { benchSpillRun(b, pl, true) })
		sc := coverpack.SpillStats()
		peak := coverpack.SpillRetainedPeakBytes()
		if sc.Parks == 0 {
			t.Fatalf("%s: spilled mode parked nothing; the benchmark is not out of core", pl.name)
		}
		mres := testing.Benchmark(func(b *testing.B) { benchSpillRun(b, pl, false) })

		row := outRow{
			Pipeline: pl.name,
			Spilled: spillModeRow{
				NsPerOp:     float64(sres.NsPerOp()),
				AllocsPerOp: sres.AllocsPerOp(),
				BytesPerOp:  sres.AllocedBytesPerOp(),
			},
			Resident: spillModeRow{
				NsPerOp:     float64(mres.NsPerOp()),
				AllocsPerOp: mres.AllocsPerOp(),
				BytesPerOp:  mres.AllocedBytesPerOp(),
			},
			Parks:             sc.Parks,
			PageIns:           sc.PageIns,
			SpillBytesWritten: sc.BytesWritten,
			SpillBytesRead:    sc.BytesRead,
			RetainedPeakBytes: peak,
		}
		if row.Resident.NsPerOp > 0 {
			row.SlowdownX = row.Spilled.NsPerOp / row.Resident.NsPerOp
		}
		out.Spills = append(out.Spills, row)
		t.Logf("%-20s spilled %12.0f ns/op (parks=%d pageins=%d written=%dB) | resident %12.0f ns/op (%.2fx)",
			pl.name, row.Spilled.NsPerOp, row.Parks, row.PageIns, row.SpillBytesWritten,
			row.Resident.NsPerOp, row.SlowdownX)
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_spill.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_spill.json")
}
