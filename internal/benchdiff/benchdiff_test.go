package benchdiff

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"BenchmarkMemDedupe-4":                 "memdedupe",
		"BenchmarkSweepTable1/runworkers=8-16": "sweeptable1/runworkers=8",
		"mem" + "hash-join":                    "memhashjoin",
		"sweep" + "table1" + "/runworkers=8":   "sweeptable1/runworkers=8",
		"plan/repartition-sweep/p=16/cacheon":  "plan/repartitionsweep/p=16/cacheon",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseGoBench(t *testing.T) {
	text := `goos: linux
goarch: amd64
BenchmarkMemDedupe-4   	     100	   1200000 ns/op	 2135376 B/op	      28 allocs/op
BenchmarkSweepTable1/runworkers=4-4         	       1	393371330 ns/op
PASS
ok  	coverpack	2.1s
`
	es, err := ParseGoBench(strings.NewReader(text), "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(es), es)
	}
	if es[0].Name != "memdedupe" || es[0].NsPerOp != 1200000 {
		t.Errorf("entry 0 = %+v", es[0])
	}
	if es[1].Name != "sweeptable1/runworkers=4" || es[1].NsPerOp != 393371330 {
		t.Errorf("entry 1 = %+v", es[1])
	}
}

func TestParseSpillBenchJSON(t *testing.T) {
	fixture := []byte(`{
		"numcpu": 1,
		"budget_bytes": 16384,
		"spills": [
			{
				"pipeline": "triangle-heavyhub",
				"spilled":  {"ns_per_op": 150000000, "allocs_per_op": 9000, "bytes_per_op": 33000000},
				"resident": {"ns_per_op": 15000000, "allocs_per_op": 8000, "bytes_per_op": 31000000},
				"slowdown_x": 10.0,
				"parks": 2400,
				"pageins": 1100,
				"spill_bytes_written": 32000000,
				"spill_bytes_read": 30000000,
				"retained_peak_bytes": 16000
			}
		]
	}`)
	es, err := ParseBenchJSON("fixture", fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(es), es)
	}
	if es[0].Name != "spilltriangleheavyhub/mode=spilled" || es[0].NsPerOp != 150000000 {
		t.Errorf("entry 0 = %+v", es[0])
	}
	if es[1].Name != "spilltriangleheavyhub/mode=resident" || es[1].NsPerOp != 15000000 {
		t.Errorf("entry 1 = %+v", es[1])
	}
	if live := Normalize("BenchmarkSpillTriangleHeavyhub/mode=spilled-4"); live != es[0].Name {
		t.Errorf("live benchmark normalizes to %q, JSON entry is %q", live, es[0].Name)
	}
}

// The compile-shaped BENCH_plancompile.json (per-op cold/warm/iso-warm
// timings) must come out under the names the live
// BenchmarkPlanCompile sub-benchmarks normalize to.
func TestParseCompileBenchJSON(t *testing.T) {
	fixture := []byte(`{
		"numcpu": 1,
		"gomaxprocs": 1,
		"compiles": [
			{
				"shape": "star-3",
				"cold_ns": 500000,
				"warm_ns": 400,
				"iso_warm_ns": 30000,
				"speedup": 1250,
				"plan_cache": {"Hits": 9, "Misses": 1},
				"lp_memo": {"Hits": 3, "SimplexRuns": 3}
			}
		]
	}`)
	es, err := ParseBenchJSON("fixture", fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 3 {
		t.Fatalf("got %d entries, want 3: %+v", len(es), es)
	}
	want := []Entry{
		{Name: "plancompile/star3/mode=cold", NsPerOp: 500000},
		{Name: "plancompile/star3/mode=warm", NsPerOp: 400},
		{Name: "plancompile/star3/mode=isowarm", NsPerOp: 30000},
	}
	for i, w := range want {
		if es[i].Name != w.Name || es[i].NsPerOp != w.NsPerOp {
			t.Errorf("entry %d = %+v, want %+v", i, es[i], w)
		}
	}
	if live := Normalize("BenchmarkPlanCompile/star-3/mode=isowarm-4"); live != es[2].Name {
		t.Errorf("live benchmark normalizes to %q, JSON entry is %q", live, es[2].Name)
	}
}

// The arms-shaped BENCH_parallel.json (per-GOMAXPROCS timings) must
// decode one entry per arm, and the legacy seq_ns/par_ns shape must
// keep working alongside it.
func TestParseParallelArmsBenchJSON(t *testing.T) {
	fixture := []byte(`{
		"numcpu": 1,
		"rows": [
			{
				"query": "triangle/matching",
				"algorithm": "hypercube",
				"n": 4000,
				"ps": [4, 16, 64],
				"emitted": 12000,
				"arms": [
					{"gomaxprocs": 1, "workers": 1, "ns": 20000000, "speedup": 1},
					{"gomaxprocs": 1, "workers": 4, "ns": 19000000, "speedup": 1.05},
					{"gomaxprocs": 4, "workers": 4, "ns": 8000000, "speedup": 2.5}
				]
			},
			{
				"query": "legacy/row",
				"algorithm": "acyclic-optimal",
				"seq_ns": 5000000,
				"par_ns": 4000000
			}
		]
	}`)
	es, err := ParseBenchJSON("fixture", fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 5 {
		t.Fatalf("got %d entries, want 5: %+v", len(es), es)
	}
	want := []Entry{
		{Name: Normalize("parallel/triangle/matching/hypercube/gomaxprocs=1/workers=1"), NsPerOp: 20000000},
		{Name: Normalize("parallel/triangle/matching/hypercube/gomaxprocs=1/workers=4"), NsPerOp: 19000000},
		{Name: Normalize("parallel/triangle/matching/hypercube/gomaxprocs=4/workers=4"), NsPerOp: 8000000},
		{Name: Normalize("parallel/legacy/row/acyclic-optimal/seq"), NsPerOp: 5000000},
		{Name: Normalize("parallel/legacy/row/acyclic-optimal/par"), NsPerOp: 4000000},
	}
	for i, w := range want {
		if es[i].Name != w.Name || es[i].NsPerOp != w.NsPerOp {
			t.Errorf("entry %d = %+v, want %+v", i, es[i], w)
		}
	}
}

// The committed BENCH_*.json schemas must all decode.
func TestParseCommittedBenchJSON(t *testing.T) {
	root := "../.."
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Skipf("no committed BENCH_*.json files: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		es, err := ParseBenchJSON(f, data)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if len(es) == 0 {
			t.Errorf("%s: no entries decoded", f)
		}
		for _, e := range es {
			if e.NsPerOp <= 0 {
				t.Errorf("%s: non-positive ns/op in %+v", f, e)
			}
		}
	}
}

func TestCompareClassifies(t *testing.T) {
	base := []Entry{
		{Name: "a", NsPerOp: 100},
		{Name: "b", NsPerOp: 100},
		{Name: "c", NsPerOp: 100},
		{Name: "gone", NsPerOp: 50},
	}
	fresh := []Entry{
		{Name: "a", NsPerOp: 110}, // within 25% noise
		{Name: "b", NsPerOp: 200}, // 2x: regression
		{Name: "c", NsPerOp: 40},  // improvement
		{Name: "new", NsPerOp: 10},
	}
	rep := Compare(base, fresh, 0.25)
	want := map[string]Status{
		"a": StatusOK, "b": StatusRegression, "c": StatusImprovement,
		"gone": StatusBaseOnly, "new": StatusFreshOnly,
	}
	for _, row := range rep.Rows {
		if row.Status != want[row.Name] {
			t.Errorf("%s: status %s, want %s", row.Name, row.Status, want[row.Name])
		}
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Name != "b" {
		t.Errorf("Regressions() = %+v, want exactly b", regs)
	}
}

// Acceptance criterion: the CLI detects a synthetic 2x slowdown in a
// fixture and exits nonzero under -check.
func TestMainDetectsSyntheticSlowdown(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_fixture.json")
	if err := os.WriteFile(baseline, []byte(`{
		"rows": {
			"dedupe":    {"ns_per_op": 1000000},
			"hash-join": {"ns_per_op": 3000000}
		}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Fresh run: dedupe got 2x slower, hash-join unchanged.
	fresh := filepath.Join(dir, "fresh.txt")
	if err := os.WriteFile(fresh, []byte(
		"BenchmarkMemDedupe-4      100  2000000 ns/op\n"+
			"BenchmarkMemHashJoin-4    100  3000000 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := Main([]string{"-json", baseline, "-input", fresh, "-check"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSION") || !strings.Contains(stdout.String(), "memdedupe") {
		t.Errorf("report missing regression line:\n%s", stdout.String())
	}

	// Without the slowdown the same inputs pass.
	if err := os.WriteFile(fresh, []byte(
		"BenchmarkMemDedupe-4      100  1050000 ns/op\n"+
			"BenchmarkMemHashJoin-4    100  3000000 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := Main([]string{"-json", baseline, "-input", fresh, "-check"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0; stdout: %s", code, stdout.String())
	}
}

func TestMainErrorsWithoutBaseline(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-json", filepath.Join(t.TempDir(), "none-*.json")}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}
