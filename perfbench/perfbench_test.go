package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"whisper/internal/server"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, n := range []int{1, 19, 50, 99} {
		if _, err := tailPercentile(seq(n), 0.9); err == nil {
			t.Errorf("p90 of %d samples: no error, want a refusal", n)
		}
	}
	got, err := tailPercentile(seq(100), 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if _, err := tailPercentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples: no error")
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	for i := 0; i < 100; i++ {
		a, b := leakRequest(7, streamLadder, i), leakRequest(7, streamLadder, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("request %d differs between calls: %+v vs %+v", i, a, b)
		}
		if len(a.Secret) != secretLen || a.Seed == 0 {
			t.Fatalf("request %d malformed: %+v", i, a)
		}
	}
	o1, o2 := hitOrder(7), hitOrder(7)
	if len(o1) != 12 {
		t.Fatalf("hit order covers %d sweeps, want the 12 servable ones", len(o1))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("hit order differs at %d: %v vs %v", i, o1, o2)
		}
	}
}

func TestDifferentSeedsDisjointRequestHashes(t *testing.T) {
	const n = 5000
	seen := make(map[string]int64)
	for _, seed := range []int64{1, 2, 3, 42} {
		for i := 0; i < n; i++ {
			norm, err := leakRequest(seed, streamLadder, i).Normalize()
			if err != nil {
				t.Fatal(err)
			}
			h := norm.Hash()
			if prev, ok := seen[h]; ok {
				t.Fatalf("seed %d request %d repeats a hash of seed %d", seed, i, prev)
			}
			seen[h] = seed
		}
	}
}

func leakReply(t *testing.T, cache, data string) reply {
	t.Helper()
	body, err := json.Marshal(map[string]any{"result": server.LeakOutcome{Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	return reply{body: body, cache: cache}
}

func TestWrongLeakCountsAsFailedOp(t *testing.T) {
	req := server.Request{Experiment: "leak", Seed: 3, Secret: "abcdefgh"}
	cases := []struct {
		name, cache, data string
		fail              bool
	}{
		{"exact", "miss", "abcdefgh", false},
		{"one misread byte", "miss", "abcXefgh", false},
		{"misread byte sent as U+FFFD", "miss", "abc�efgh", false},
		{"three wrong bytes", "miss", "aXcXeXgh", true},
		{"short", "miss", "abcd", true},
		{"served from cache", "hit", "abcdefgh", true},
	}
	for _, c := range cases {
		err := checkLeak(leakReply(t, c.cache, c.data), req)
		if (err != nil) != c.fail {
			t.Errorf("%s: err = %v, want failure %v", c.name, err, c.fail)
		}
	}

	// Through the closed loop, a failed check is a failed op.
	replies := []reply{leakReply(t, "miss", "abcdefgh"), leakReply(t, "miss", "XXXXefgh"), leakReply(t, "miss", "abcdefgh")}
	next := 0
	w := closedLoop(loop{clients: 1, dur: time.Minute, maxOps: len(replies)}, nil, func(*tracer) (time.Duration, error) {
		r := replies[next]
		next++
		return time.Millisecond, checkLeak(r, req)
	})
	if w.attempted != 3 || w.failed != 1 || len(w.lat) != 2 {
		t.Errorf("attempted %d failed %d latencies %d, want 3, 1, 2", w.attempted, w.failed, len(w.lat))
	}
}

func TestChangedReportCountsAsFailedOp(t *testing.T) {
	ref := []byte(`{"Seed":1,"Table2Agrees":true,"MitigationsAgree":true}`)
	if err := checkReport(ref, ref); err != nil {
		t.Fatalf("identical report: %v", err)
	}
	if err := checkReport([]byte(`{"Seed":2,"Table2Agrees":true,"MitigationsAgree":true}`), ref); err == nil {
		t.Error("changed report passed")
	}
	if err := checkReport([]byte(`{"Table2Agrees":false,"MitigationsAgree":true}`), nil); err == nil {
		t.Error("report disagreeing with Table 2 passed")
	}
	if err := checkReport([]byte(`{"Table2Agrees":true,"MitigationsAgree":false}`), nil); err == nil {
		t.Error("report disagreeing with the mitigation matrix passed")
	}
}

// benchmarkFile is the part of BENCHMARK.json these tests read.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEveryPerLayerMetricHasAPrediction(t *testing.T) {
	d, err := loadDesign()
	if err != nil {
		t.Fatal(err)
	}
	pred := make(map[string]prediction)
	for _, p := range d.Predictions {
		if p.Layer == "" || p.Timed == "" || p.Moves == "" || p.FlatOn == "" {
			t.Errorf("prediction for %s is incomplete: %+v", p.Metric, p)
		}
		pred[p.Metric] = p
	}
	f := readBenchmark(t)
	named := make(map[string]bool)
	for _, m := range f.PerLayer {
		named[m.Name] = true
		if _, ok := pred[m.Name]; !ok {
			t.Errorf("per-layer metric %s has no prediction in design.json", m.Name)
		}
	}
	for name := range pred {
		if !named[name] {
			t.Errorf("design.json predicts %s, which BENCHMARK.json does not name", name)
		}
	}
	if len(d.NoiseControls) == 0 {
		t.Error("design.json records no noise controls")
	}
}

func TestEndToEndMetricsMatchBenchmarkFile(t *testing.T) {
	w := window{sliceDur: time.Second, cpuMarks: []time.Duration{0, time.Second}, attempted: 100}
	for i := 0; i < 100; i++ {
		w.lat = append(w.lat, float64(i+1))
		w.end = append(w.end, time.Duration(i)*time.Millisecond)
	}
	got, err := endToEndMetrics(w, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	f := readBenchmark(t)
	if len(got) != len(f.EndToEnd) {
		t.Errorf("endToEndMetrics reports %d metrics, BENCHMARK.json names %d", len(got), len(f.EndToEnd))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range f.EndToEnd {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: not reported", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !name.MatchString(m.Name) {
			t.Errorf("%s: bad name or bound %v", m.Name, m.Bound)
		}
	}
	if got["setup_s"].Value != 2 || got["latency_p90_ms"].Value != 90 || got["throughput_ops_s"].Value != 100 {
		t.Errorf("unexpected values: %+v", got)
	}
}

func TestEndToEndMetricsRefuseShortSlices(t *testing.T) {
	w := window{sliceDur: time.Second, cpuMarks: []time.Duration{0, time.Second}, attempted: 50}
	for i := 0; i < 50; i++ {
		w.lat = append(w.lat, 1)
		w.end = append(w.end, 0)
	}
	if _, err := endToEndMetrics(w, []float64{1}); err == nil {
		t.Error("a slice of 50 ops yielded a p90")
	}
	if _, err := endToEndMetrics(window{attempted: 1, failed: 1}, nil); err == nil {
		t.Error("a window with no succeeded op yielded metrics")
	}
}
