package benchdiff

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Adapters for the repo's committed BENCH_*.json files. The files were
// written by different bench harnesses and carry different schemas;
// ParseBenchJSON sniffs the shape and emits normalized entries:
//
//	memory   {"rows": {"dedupe": {"ns_per_op": N}}}      → mem<name>
//	parallel {"rows": [{query, algorithm, arms: [{gomaxprocs, workers, ns}]}]}
//	         → parallel/<query>/<alg>/gomaxprocs=<g>/workers=<w>
//	parallel (legacy) {"rows": [{query, algorithm, seq_ns, par_ns}]} → parallel/<query>/<alg>/seq|par
//	plan     {"rows": [{workload, cache_on_ns, cache_off_ns}]} → plan/<workload>/cacheon|cacheoff
//	sweep    {"arms": [{sweep, run_workers, ns}]}        → sweep<sweep>/runworkers=<w>
//	spill    {"spills": [{pipeline, spilled: {ns_per_op}, resident: {ns_per_op}}]}
//	         → spill<pipeline>/mode=spilled|resident
//	compile  {"compiles": [{shape, cold_ns, warm_ns, iso_warm_ns}]}
//	         → plancompile/<shape>/mode=cold|warm|isowarm
//
// The memory, sweep, spill, and compile forms line up with live
// benchmark names (BenchmarkMemDedupe, BenchmarkSweepTable1/runworkers=4,
// BenchmarkSpillTriangleHeavyhub/mode=spilled,
// BenchmarkPlanCompile/line3/mode=warm) after Normalize; the
// others compare only against their own kind.

type memoryFile struct {
	Rows map[string]struct {
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"rows"`
}

type parallelFile struct {
	Rows []struct {
		Query     string  `json:"query"`
		Algorithm string  `json:"algorithm"`
		SeqNs     float64 `json:"seq_ns"`
		ParNs     float64 `json:"par_ns"`
		Arms      []struct {
			GOMAXPROCS int     `json:"gomaxprocs"`
			Workers    int     `json:"workers"`
			Ns         float64 `json:"ns"`
		} `json:"arms"`
	} `json:"rows"`
}

type planFile struct {
	Rows []struct {
		Workload   string  `json:"workload"`
		CacheOnNs  float64 `json:"cache_on_ns"`
		CacheOffNs float64 `json:"cache_off_ns"`
	} `json:"rows"`
}

type sweepFile struct {
	Arms []struct {
		Sweep      string  `json:"sweep"`
		RunWorkers int     `json:"run_workers"`
		Ns         float64 `json:"ns"`
	} `json:"arms"`
}

type spillFile struct {
	Spills []struct {
		Pipeline string `json:"pipeline"`
		Spilled  struct {
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"spilled"`
		Resident struct {
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"resident"`
	} `json:"spills"`
}

type compilesFile struct {
	Compiles []struct {
		Shape     string  `json:"shape"`
		ColdNs    float64 `json:"cold_ns"`
		WarmNs    float64 `json:"warm_ns"`
		IsoWarmNs float64 `json:"iso_warm_ns"`
	} `json:"compiles"`
}

// ParseBenchJSON decodes one committed BENCH_*.json file into entries,
// sniffing which of the known schemas it carries.
func ParseBenchJSON(source string, data []byte) ([]Entry, error) {
	var probe struct {
		Rows     json.RawMessage `json:"rows"`
		Arms     json.RawMessage `json:"arms"`
		Spills   json.RawMessage `json:"spills"`
		Compiles json.RawMessage `json:"compiles"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", source, err)
	}
	add := func(out []Entry, name string, ns float64) []Entry {
		if ns <= 0 {
			return out
		}
		return append(out, Entry{Name: Normalize(name), NsPerOp: ns, Source: source})
	}
	var out []Entry
	switch {
	case len(probe.Compiles) > 0:
		var f compilesFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("benchdiff: %s: %w", source, err)
		}
		for _, c := range f.Compiles {
			base := "plancompile/" + c.Shape + "/mode="
			out = add(out, base+"cold", c.ColdNs)
			out = add(out, base+"warm", c.WarmNs)
			out = add(out, base+"isowarm", c.IsoWarmNs)
		}
	case len(probe.Spills) > 0:
		var f spillFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("benchdiff: %s: %w", source, err)
		}
		for _, s := range f.Spills {
			base := "spill" + s.Pipeline + "/mode="
			out = add(out, base+"spilled", s.Spilled.NsPerOp)
			out = add(out, base+"resident", s.Resident.NsPerOp)
		}
	case len(probe.Arms) > 0:
		var f sweepFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("benchdiff: %s: %w", source, err)
		}
		for _, a := range f.Arms {
			out = add(out, "sweep"+a.Sweep+"/runworkers="+strconv.Itoa(a.RunWorkers), a.Ns)
		}
	case len(probe.Rows) > 0 && probe.Rows[0] == '{':
		var f memoryFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("benchdiff: %s: %w", source, err)
		}
		for name, row := range f.Rows {
			out = add(out, "mem"+name, row.NsPerOp)
		}
	case len(probe.Rows) > 0 && probe.Rows[0] == '[':
		// Array rows: parallel (per-arm timings, or the legacy
		// seq_ns/par_ns pair) or plan (cache_*_ns); decode both and keep
		// whichever matched.
		var pf parallelFile
		if err := json.Unmarshal(data, &pf); err != nil {
			return nil, fmt.Errorf("benchdiff: %s: %w", source, err)
		}
		matched := false
		for _, row := range pf.Rows {
			base := "parallel/" + row.Query + "/" + row.Algorithm
			if len(row.Arms) > 0 {
				for _, a := range row.Arms {
					matched = true
					out = add(out, base+"/gomaxprocs="+strconv.Itoa(a.GOMAXPROCS)+"/workers="+strconv.Itoa(a.Workers), a.Ns)
				}
				continue
			}
			if row.SeqNs <= 0 && row.ParNs <= 0 {
				continue
			}
			matched = true
			out = add(out, base+"/seq", row.SeqNs)
			out = add(out, base+"/par", row.ParNs)
		}
		if !matched {
			var cf planFile
			if err := json.Unmarshal(data, &cf); err != nil {
				return nil, fmt.Errorf("benchdiff: %s: %w", source, err)
			}
			for _, row := range cf.Rows {
				out = add(out, "plan/"+row.Workload+"/cacheon", row.CacheOnNs)
				out = add(out, "plan/"+row.Workload+"/cacheoff", row.CacheOffNs)
			}
		}
	default:
		return nil, fmt.Errorf("benchdiff: %s: unrecognized schema (no rows, arms, spills, or compiles)", source)
	}
	return out, nil
}
