// Command perfbench is whisper's end-to-end and per-layer benchmark.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload <artefacts|serve_hit> \
//	    --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it sets the workload up, measures it for --seconds and
// prints the end-to-end metrics. With --trace 1 it measures the workload
// untraced and then traced for half the time each, walks the layer ladder
// (timed calls into each layer's public functions, entered from outside),
// writes the spans to .bench_build/perfbench-trace/, and prints the
// per-layer metrics with the end-to-end metric each should move. The last
// line of standard output is the result object; BENCHMARK.json at the
// repository root names the metrics and design.json holds the reasons.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to process start as Go code can observe; setup
// time is measured from it.
var processStart = time.Now()

// setupRuns is how many fresh processes set a workload up per run: this one
// and setupRuns-1 children. setup_s is their median.
const setupRuns = 3

// workload is one traffic mix the benchmark times.
type workload interface {
	// setup brings the workload to where the first timed op can run.
	setup() error
	// measure runs ops for dur; a non-nil tracer records their spans.
	measure(dur time.Duration, tr *tracer) window
	// verify runs the checks made after a timed window; a check on an op
	// that fails adds to w.failed, any other failed check is returned.
	verify(w *window) error
	close()
}

// workloads builds each workload from the run's seed.
var workloads = map[string]func(seed int64) workload{
	"artefacts": func(int64) workload { return &artefacts{} },
	"serve_hit": func(s int64) workload { return &serveHit{seed: s} },
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: artefacts or serve_hit")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	child := fs.String("child", "", "internal: run one child-process step (pass, pass-stats, sweeps, setup)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *child {
	case "":
	case "pass":
		return childPass()
	case "pass-stats":
		return childPassStats()
	case "sweeps":
		return childSweeps()
	case "setup":
		return childSetup(*name, *seed)
	default:
		return fmt.Errorf("unknown child mode %q", *child)
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have artefacts, serve_hit)", *name)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	host := readHost(root)
	host.Workload, host.Seed, host.Seconds, host.Trace = *name, *seed, *seconds, *trace == 1
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("# host %s\n", hb)

	dur := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = tracedRun(mk(*seed), *seed, dur, host, root)
	} else {
		res, err = endToEndRun(mk(*seed), *name, *seed, dur)
	}
	if err != nil {
		return err
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	fmt.Printf("# ops attempted %d succeeded %d failed %d\n", res.Attempted, res.Attempted-res.Failed, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEndRun sets the workload up, times it untraced for dur, and sets it up
// in setupRuns-1 more fresh processes for setup_s.
func endToEndRun(w workload, name string, seed int64, dur time.Duration) (result, error) {
	if err := w.setup(); err != nil {
		w.close()
		return result{}, err
	}
	setups := []float64{time.Since(processStart).Seconds()}
	win := w.measure(dur, nil)
	verr := w.verify(&win)
	w.close()
	if verr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", verr)
	}
	if w, ok := w.(*serveHit); ok {
		fmt.Printf("# serve_hit spill misses: %d of %d requests\n", w.spills.Load(), win.attempted)
	}
	for i := 1; i < setupRuns; i++ {
		p, err := runChild("-child", "setup", "-workload", name, "-seed", strconv.FormatInt(seed, 10))
		if err != nil {
			return result{}, err
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(p.out)), 64)
		if err != nil {
			return result{}, fmt.Errorf("setup child: %w", err)
		}
		setups = append(setups, s)
	}
	m, err := endToEndMetrics(win, setups)
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   win.failed == 0 && verr == nil,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   m,
	}, nil
}

// childSetup is the "-child setup" mode: set the workload up in this fresh
// process, print the seconds since process start, and tear it down.
func childSetup(name string, seed int64) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	w := mk(seed)
	defer w.close()
	if err := w.setup(); err != nil {
		return err
	}
	fmt.Println(time.Since(processStart).Seconds())
	return nil
}

// tracedRun measures the workload untraced and traced for half of dur each
// (their latency ratio is the tracing overhead), then walks the layer ladder
// and writes every span under root/.bench_build/perfbench-trace/.
func tracedRun(w workload, seed int64, dur time.Duration, host hostInfo, root string) (result, error) {
	tr := newTracer()
	if err := w.setup(); err != nil {
		w.close()
		return result{}, err
	}
	plain := w.measure(dur/2, nil)
	traced := w.measure(dur/2, tr)
	verr := w.verify(&traced)
	w.close()
	if verr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", verr)
	}
	if len(plain.lat) == 0 || len(traced.lat) == 0 {
		return result{}, errors.New("a traced-run segment completed no op")
	}
	base := median(plain.lat)

	l := newLadder(seed, tr)
	if err := l.run(); err != nil {
		return result{}, err
	}
	l.set("bench.trace_overhead_pct", "%", (median(traced.lat)-base)/base*100)
	fmt.Printf("# ladder leaked bytes wrong: %d of %d\n", leakBytesWrong.Load(), leakBytesChecked.Load())

	path := filepath.Join(root, ".bench_build", "perfbench-trace",
		fmt.Sprintf("%s-seed%d.json", host.Workload, seed))
	if err := tr.write(path, host); err != nil {
		return result{}, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	if err := printPredictions(l.metrics); err != nil {
		return result{}, err
	}
	failed := plain.failed + traced.failed + l.failed
	return result{
		Correct:   failed == 0 && verr == nil,
		Attempted: plain.attempted + traced.attempted + l.attempted,
		Failed:    failed,
		Metrics:   l.metrics,
	}, nil
}

//go:embed design.json
var designJSON []byte

// design is design.json: why each noise control is there, what each
// per-layer metric should move, and which metrics are left out.
type design struct {
	NoiseControls []struct {
		Control string `json:"control"`
		Reason  string `json:"reason"`
	} `json:"noise_controls"`
	Omitted []struct {
		Metric string `json:"metric"`
		Reason string `json:"reason"`
	} `json:"omitted"`
	Predictions []prediction `json:"predictions"`
}

// prediction is what one per-layer metric times and which end-to-end metric
// on which workload it should move, and where it should stay flat.
type prediction struct {
	Metric string `json:"metric"`
	Layer  string `json:"layer"`
	Timed  string `json:"timed"`
	Moves  string `json:"moves"`
	FlatOn string `json:"flat_on"`
}

func loadDesign() (design, error) {
	var d design
	err := json.Unmarshal(designJSON, &d)
	return d, err
}

// printPredictions prints each per-layer metric beside its prediction.
func printPredictions(ms map[string]metric) error {
	d, err := loadDesign()
	if err != nil {
		return err
	}
	byName := make(map[string]prediction)
	for _, p := range d.Predictions {
		byName[p.Metric] = p
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			return fmt.Errorf("metric %s has no prediction in design.json", n)
		}
		fmt.Printf("# layer %-34s %14.4f %-9s moves: %s | flat on: %s\n",
			n, ms[n].Value, ms[n].Unit, p.Moves, p.FlatOn)
	}
	return nil
}
