package main

import (
	"strings"

	"coverpack"
)

// tracedRun is one run made under a root span, with a TraceCollector
// attached to every execution.
type tracedRun struct {
	pass   *pass
	err    error
	sample sample
	// delta is the metrics registry's change across the run.
	delta             map[string]float64
	gcCPU, gcCycles   float64
	cellSum, cellMax  float64 // sweep: harness-timed cell seconds
	lowerBoundSeconds float64
}

func (b *bench) tracedRun() (tracedRun, error) {
	root := b.tr.root("run", true)
	gcCPU, gcCycles := runtimeValue(gcCPUMetric), runtimeValue(gcCyclesMetric)
	mt, err := startMeter()
	if err != nil {
		return tracedRun{}, err
	}
	p, err := b.run(root)
	tr := tracedRun{pass: p, err: err, sample: mt.stop()}
	tr.gcCPU = runtimeValue(gcCPUMetric) - gcCPU
	tr.gcCycles = runtimeValue(gcCyclesMetric) - gcCycles
	root.end()
	tr.delta = b.tr.spans[root.id-1].Delta
	for i, r := range p.cells {
		if b.cells[i].in == nil {
			tr.lowerBoundSeconds += r.seconds
		}
		tr.cellSum += r.seconds
		if r.seconds > tr.cellMax {
			tr.cellMax = r.seconds
		}
	}
	return tr, nil
}

// layerMetrics fills the per-layer metrics that come from the traced
// runs. Counters are per-run means of the registry deltas; times are
// medians over the traced runs.
func (b *bench) layerMetrics(rec *record, runs []tracedRun) {
	m := rec.Metrics
	k := float64(len(runs))
	sum := map[string]float64{}
	var walls, cellSums, cellMaxes, lbs []float64
	var cache coverpack.CacheStats
	for _, tr := range runs {
		for key, v := range tr.delta {
			sum[key] += v
		}
		walls = append(walls, tr.sample.Wall)
		cellSums = append(cellSums, tr.cellSum)
		cellMaxes = append(cellMaxes, tr.cellMax)
		lbs = append(lbs, tr.lowerBoundSeconds)
		m["runtime.gc_cpu_s"] += tr.gcCPU / k
		m["runtime.gc_cycles"] += tr.gcCycles / k
		for _, r := range tr.pass.cells {
			cache.Hits += r.cache.Hits
			cache.PartitionHits += r.cache.PartitionHits
			cache.Misses += r.cache.Misses
		}
		if tr.pass.spillPeak > int64(m["spill.retained_peak_bytes"]) {
			m["spill.retained_peak_bytes"] = float64(tr.pass.spillPeak)
		}
		m["sched.gate_waits"] += float64(tr.pass.sched.GateWaits) / k
		if c := float64(tr.pass.sched.MaxConcurrent); c > m["sched.max_concurrent"] {
			m["sched.max_concurrent"] = c
		}
	}
	perRun := func(key string) float64 { return sum[key] / k }

	m["trace.wall_s"] = median(walls)
	m["trace.overhead_s"] = m["trace.wall_s"] - m["wall_s"]
	if useful := float64(cache.Hits + cache.PartitionHits); useful+float64(cache.Misses) > 0 {
		m["mpc.exchange_cache.hit_ratio"] = useful / (useful + float64(cache.Misses))
	}
	const phasePrefix = "coverpack_mpc_phase_seconds{phase="
	for key, v := range sum {
		label, ok := strings.CutPrefix(key, phasePrefix)
		if !ok || !strings.HasSuffix(label, "}:sum") {
			continue
		}
		label = strings.TrimSuffix(label, "}:sum")
		for _, pm := range phaseMetrics {
			if label == pm.label || strings.HasSuffix(pm.label, " ") && strings.HasPrefix(label, pm.label) {
				m[pm.metric] += v / k
			}
		}
	}

	m["engine.forks"] = perRun("coverpack_engine_forks_total")
	m["engine.seq_fallbacks"] = perRun("coverpack_engine_seq_fallbacks_total")
	m["morsel.busy_s"] = perRun("coverpack_morsel_worker_busy_seconds:sum")
	m["morsel.steals"] = perRun("coverpack_morsel_steals_total")
	m["morsel.ranges"] = perRun("coverpack_morsel_ranges_total")
	if w := m["trace.wall_s"]; w > 0 {
		m["morsel.busy_over_capacity"] = m["morsel.busy_s"] / (w * float64(b.nproc))
	}

	m["relation.par_kernels"] = perRun("coverpack_par_kernels_total")
	m["relation.seq_cutoffs"] = perRun("coverpack_morsel_seq_cutoffs_total")
	m["stream.chunks"] = perRun("coverpack_stream_chunks_total")
	m["stream.spills"] = perRun("coverpack_stream_spills_total")
	for metric, pool := range map[string]string{"pool.arena.hit_ratio": "arena", "pool.hash.hit_ratio": "hashtab", "pool.send.hit_ratio": "sendlist"} {
		if gets := sum["coverpack_pool_ops_total{op=get,pool="+pool+"}"]; gets > 0 {
			m[metric] = sum["coverpack_pool_ops_total{op=hit,pool="+pool+"}"] / gets
		}
	}

	m["spill.parks"] = perRun("coverpack_spill_parks_total")
	m["spill.pageins"] = perRun("coverpack_spill_pageins_total")
	m["spill.bytes_written"] = perRun("coverpack_spill_bytes_written_total")
	m["spill.bytes_read"] = perRun("coverpack_spill_bytes_read_total")
	if b.w.spill {
		m["spill.peak_over_budget"] = m["spill.retained_peak_bytes"] / spillBudget
	}

	if b.w.sweep {
		m["sched.cells"] = float64(len(b.cells))
		m["sched.cell_s_sum"] = median(cellSums)
		m["sched.cell_s_max"] = median(cellMaxes)
	}
	for _, c := range b.cells {
		if c.in == nil {
			m["lowerbound.calls"]++
		}
	}
	m["lowerbound.minload_s"] = median(lbs)

	rec.Phases = map[string][]coverpack.PhaseRow{}
	for i, r := range runs[0].pass.cells {
		rec.Phases[b.cells[i].key] = r.phases
	}
}
