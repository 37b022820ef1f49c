package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is the cost of one timed run.
type sample struct {
	Wall  float64 `json:"wall_s"`
	CPU   float64 `json:"cpu_s"`
	Alloc float64 `json:"alloc_bytes"`
	// PeakRSS is the resident high-water mark during the run, in MiB.
	PeakRSS float64 `json:"peak_rss_mb"`
}

// meter brackets one run: wall clock, process CPU time (getrusage),
// heap bytes allocated (runtime/metrics) and peak resident memory.
type meter struct {
	wall  time.Time
	cpu   float64
	alloc float64
}

func startMeter() (meter, error) {
	if err := resetPeakRSS(); err != nil {
		return meter{}, err
	}
	return meter{cpu: cpuSeconds(), alloc: runtimeValue(allocsMetric), wall: time.Now()}, nil
}

// stop collects the run's garbage, so that the collection is billed to
// the run that made it and the next run starts from a collected heap,
// and returns the run's cost.
func (m meter) stop() sample {
	runtime.GC()
	wall := time.Since(m.wall).Seconds()
	return sample{Wall: wall, CPU: cpuSeconds() - m.cpu, Alloc: runtimeValue(allocsMetric) - m.alloc, PeakRSS: peakRSSMiB()}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS sets the kernel's resident high-water mark of the process
// back to its current resident size (Linux clear_refs value 5), so that
// the next peakRSSMiB reads the peak since now. Where that is refused,
// the peak would be the process's lifetime peak, so the error is
// returned and no per-run peak is reported.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident size: %w", err)
	}
	return nil
}

// peakRSSMiB is the resident high-water mark (VmHWM, else ru_maxrss) in
// MiB.
func peakRSSMiB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

const (
	allocsMetric   = "/gc/heap/allocs:bytes"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
)

// runtimeValue reads one runtime/metrics sample as a float.
func runtimeValue(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

// summary is a distribution of per-run values.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize returns the median and quartiles of xs. The quartiles use
// the exclusive method of Python's statistics.quantiles(xs, n=4), and
// equal the median when there are fewer than two values.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	out := summary{N: n, Median: med, Q1: med, Q3: med}
	if n < 2 {
		return out
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = q(1), q(3)
	return out
}

func median(xs []float64) float64 { return summarize(xs).Median }
