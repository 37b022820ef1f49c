package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyConfig(t *testing.T, name string, seed uint64, trace bool) config {
	return config{workload: name, seed: seed, trace: trace, outDir: t.TempDir(), commit: "test", sizes: tinySizes}
}

// runTiny executes the benchmark and decodes its last stdout line.
func runTiny(t *testing.T, cfg config) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := execute(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", cfg.workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: result line: %v", cfg.workload, err)
	}
	return out
}

func checkMetrics(t *testing.T, name string, out output, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(out.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", name, len(out.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := out.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", name, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
		}
	}
}

// Every workload of BENCHMARK.json runs correctly at a tiny size on two
// seeds, emits every listed metric with its unit, and repeats its load
// and rounds exactly between the untraced and the traced run.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		plain := runTiny(t, tinyConfig(t, w.Name, 1, false))
		traced := runTiny(t, tinyConfig(t, w.Name, 1, true))
		other := runTiny(t, tinyConfig(t, w.Name, 2, false))
		for _, out := range []output{plain, traced, other} {
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, out.Correct, out.Attempted, out.Failed)
			}
		}
		checkMetrics(t, w.Name, plain, bf.EndToEnd)
		checkMetrics(t, w.Name+" traced", traced, bf.PerLayer)
		if plain.Metrics["max_load"].Value != traced.Metrics["mpc.max_load"].Value ||
			plain.Metrics["rounds"].Value != traced.Metrics["mpc.rounds"].Value {
			t.Errorf("%s: load/rounds %v/%v untraced, %v/%v traced", w.Name,
				plain.Metrics["max_load"].Value, plain.Metrics["rounds"].Value,
				traced.Metrics["mpc.max_load"].Value, traced.Metrics["mpc.rounds"].Value)
		}
	}
}

// A wrong expected count makes every run fail, and the benchmark keeps
// going and reports it.
func TestWrongExpectedCountIsReportedAsFailures(t *testing.T) {
	for _, name := range []string{"path4-zipf", "catalog-sweep"} {
		cfg := tinyConfig(t, name, 1, false)
		cfg.wrongCount = 1
		out := runTiny(t, cfg)
		if out.Correct || out.Failed == 0 || out.Failed != out.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every run failed", name, out.Correct, out.Attempted, out.Failed)
		}
	}
}

// The traced run's spans form one tree per run: exactly one root per
// run id, and every other span's parent is a span of the same run that
// encloses it in time.
func TestSpanTreeHasOneRootPerRun(t *testing.T) {
	for _, name := range []string{"square-zipf-skew", "catalog-sweep"} {
		cfg := tinyConfig(t, name, 3, true)
		runTiny(t, cfg)
		data, err := os.ReadFile(filepath.Join(cfg.outDir, name+"-seed3-trace1.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		byID := map[int]span{}
		roots := map[int]int{}
		for _, s := range rec.Spans {
			byID[s.ID] = s
			if s.Parent == 0 {
				roots[s.Run]++
			}
		}
		runs := map[int]bool{}
		for _, s := range rec.Spans {
			runs[s.Run] = true
			if s.End < s.Start {
				t.Errorf("%s: span %d %q ends before it starts", name, s.ID, s.Name)
			}
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok || p.Run != s.Run || p.Start > s.Start || p.End < s.End {
				t.Errorf("%s: span %d %q: parent %d is not an enclosing span of run %d", name, s.ID, s.Name, s.Parent, s.Run)
			}
		}
		for run := range runs {
			if roots[run] != 1 {
				t.Errorf("%s: run %d has %d roots", name, run, roots[run])
			}
		}
		if len(runs) < 3 {
			t.Errorf("%s: %d traced runs, want at least setup, oracle and a run", name, len(runs))
		}
	}
}
