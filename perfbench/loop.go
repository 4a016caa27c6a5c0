package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window is what one timed stretch of a workload measured.
type window struct {
	lat       []float64       // ms, one per succeeded op
	end       []time.Duration // when each succeeded op ended, from the window's start
	attempted int
	failed    int

	// Serving windows split into slices of sliceDur; cpuMarks[k] is the
	// process CPU time at the start of slice k.
	sliceDur time.Duration
	cpuMarks []time.Duration

	// opCPU is each succeeded op's own CPU time in ms, where the op runs in a
	// child process (artefacts).
	opCPU []float64

	rssMB float64 // peak resident set
}

func (w window) succeeded() int { return w.attempted - w.failed }

// opFunc runs one op and returns the latency to record for it.
type opFunc func(tr *tracer) (time.Duration, error)

// loop configures closedLoop.
type loop struct {
	clients int
	dur     time.Duration
	maxOps  int // stop after this many ops have started (<= 0: no limit)
	slices  int // split dur into this many slices for per-slice statistics
	// rssAfter is the succeeded-op count at which peak RSS is read, so that
	// memory is compared at a fixed amount of work whatever the throughput
	// (<= 0, or never reached: read at the end).
	rssAfter int
}

// closedLoop runs clients goroutines; each sends its next op only once the
// previous one has returned. CPU is this process's user plus system time.
func closedLoop(cfg loop, tr *tracer, op opFunc) window {
	var (
		started, done atomic.Int64
		rssOnce       sync.Once
		mu            sync.Mutex
		w             window
		wg            sync.WaitGroup
	)
	if cfg.slices > 0 {
		w.sliceDur = cfg.dur / time.Duration(cfg.slices)
	}
	start := time.Now()
	deadline := start.Add(cfg.dur)
	stopMarks := make(chan struct{})
	marksDone := make(chan struct{})
	go func() {
		defer close(marksDone)
		w.cpuMarks = append(w.cpuMarks, processCPU())
		if w.sliceDur <= 0 {
			return
		}
		for k := 1; k <= cfg.slices; k++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(k) * w.sliceDur))):
				w.cpuMarks = append(w.cpuMarks, processCPU())
			case <-stopMarks:
				return
			}
		}
	}()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var end []time.Duration
			attempted, failed := 0, 0
			for time.Now().Before(deadline) {
				if n := started.Add(1); cfg.maxOps > 0 && n > int64(cfg.maxOps) {
					break
				}
				d, err := op(tr)
				attempted++
				if err != nil {
					failed++
					reportFailure(err)
					continue
				}
				lat = append(lat, ms(d))
				end = append(end, time.Since(start))
				if done.Add(1) == int64(cfg.rssAfter) {
					rssOnce.Do(func() { w.rssMB = peakRSSMB() })
				}
			}
			mu.Lock()
			w.lat = append(w.lat, lat...)
			w.end = append(w.end, end...)
			w.attempted += attempted
			w.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(stopMarks)
	<-marksDone
	rssOnce.Do(func() { w.rssMB = peakRSSMB() })
	return w
}

// sliceStats returns, for each complete slice of a serving window, the
// throughput in ops/s, the CPU ms per op, and the latencies of the ops that
// ended in it.
func (w window) sliceStats() (tput, cpu []float64, lat [][]float64) {
	n := len(w.cpuMarks) - 1
	lat = make([][]float64, n)
	for i, e := range w.end {
		if k := int(e / w.sliceDur); k < n {
			lat[k] = append(lat[k], w.lat[i])
		}
	}
	for k := 0; k < n; k++ {
		ops := float64(len(lat[k]))
		tput = append(tput, ops/w.sliceDur.Seconds())
		cpu = append(cpu, ms(w.cpuMarks[k+1]-w.cpuMarks[k])/ops)
	}
	return tput, cpu, lat
}

// endToEndMetrics turns a window into the end-to-end metrics of
// BENCHMARK.json. A serving window reports the median across its slices of
// each slice's figure, so a few seconds of interference from other work on
// the host move one slice, not the result. An artefacts window holds one
// op per pass and reports medians across passes; its passes are too few for
// a p90 with ten samples beyond it, so its p90 is the nearest-rank value and
// reads as sample-limited.
func endToEndMetrics(w window, setups []float64) (map[string]metric, error) {
	if w.succeeded() == 0 {
		return nil, fmt.Errorf("no op succeeded (%d attempted)", w.attempted)
	}
	var tput, p50, p90, cpu float64
	if w.opCPU != nil {
		p50 = median(w.lat)
		tput = 1000 / p50
		p90 = nearestRank(w.lat, 0.9)
		cpu = median(w.opCPU)
	} else {
		tputs, cpus, lats := w.sliceStats()
		var p50s, p90s []float64
		for _, l := range lats {
			q, err := tailPercentile(l, 0.9)
			if err != nil {
				return nil, fmt.Errorf("slice of %v: %w", w.sliceDur, err)
			}
			p50s, p90s = append(p50s, median(l)), append(p90s, q)
		}
		tput, p50, p90, cpu = median(tputs), median(p50s), median(p90s), median(cpus)
	}
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_ops_s": {tput, "ops/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_p90_ms":   {p90, "ms"},
		"cpu_ms_per_op":    {cpu, "ms"},
		"peak_rss_mb":      {w.rssMB, "MB"},
	}, nil
}

// failuresShown caps how many op failures are printed per run.
var failuresShown atomic.Int32

func reportFailure(err error) {
	if failuresShown.Add(1) <= 10 {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
