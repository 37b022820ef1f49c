package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"coverpack"
)

// span is one harness call into a module's public function. Spans of
// one run share Run; a run's root has Parent 0.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Delta holds the nonzero changes of the metrics registry's counters
	// and histogram sums across the call. It is recorded only for calls
	// made while no other call runs (never inside sched cells).
	Delta map[string]float64 `json:"delta,omitempty"`
}

// tracer keeps the spans of a traced benchmark in memory. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	runs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span whose call has not returned yet.
type openSpan struct {
	t      *tracer
	id     int
	run    int
	before map[string]float64
}

// root opens the root span of a new run.
func (t *tracer) root(name string, snap bool) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.runs++
	run := t.runs
	t.mu.Unlock()
	return t.open(run, 0, name, snap)
}

func (t *tracer) open(run, parent int, name string, snap bool) *openSpan {
	o := &openSpan{t: t, run: run}
	if snap {
		o.before = registryValues()
	}
	t.mu.Lock()
	o.id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: o.id, Parent: parent, Run: run, Name: name, Start: time.Since(t.t0).Seconds()})
	t.mu.Unlock()
	return o
}

// child opens a span under o; snap records registry deltas.
func (o *openSpan) child(name string, snap bool) *openSpan {
	if o == nil {
		return nil
	}
	return o.t.open(o.run, o.id, name, snap)
}

// end closes the span and returns its duration in seconds.
func (o *openSpan) end() float64 {
	if o == nil {
		return 0
	}
	var delta map[string]float64
	if o.before != nil {
		delta = deltas(o.before, registryValues())
	}
	end := time.Since(o.t.t0).Seconds()
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	s := &o.t.spans[o.id-1]
	s.End, s.Delta = end, delta
	return s.End - s.Start
}

// registryValues flattens the metrics registry's counters and
// histograms (count and sum) into name{labels} keys. Gauges are left
// out: a level has no meaningful delta.
func registryValues() map[string]float64 {
	out := map[string]float64{}
	for _, m := range coverpack.TakeMetricsSnapshot().Metrics {
		key := m.Name + labelSuffix(m.Labels)
		switch {
		case m.Kind == "counter" && m.Value != nil:
			out[key] = *m.Value
		case m.Kind == "histogram" && m.Sum != nil && m.Count != nil:
			out[key+":sum"] = *m.Sum
			out[key+":count"] = float64(*m.Count)
		}
	}
	return out
}

func labelSuffix(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func deltas(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}
