package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Spans of one op share Op; Parent is the enclosing span's ID (0 at the
// root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer times calls
// without recording them, so traced and untraced runs share one code path.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	ops   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh op ID (0 on a nil tracer).
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// do runs f as span name under parent and returns its duration. f receives
// the span's ID so that nested calls can name it as their parent.
func (t *tracer) do(op, parent int64, name string, f func(id int64) error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := f(0)
		return time.Since(start), err
	}
	id := t.ids.Add(1)
	start := time.Now()
	err := f(id)
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return end.Sub(start), err
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover, in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return self
}

// write stores the spans, sorted by start, with the run's host record and
// per-name self times as JSON at path.
func (t *tracer) write(path string, host hostInfo) error {
	self := t.selfTimes()
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Host   hostInfo           `json:"host"`
		SelfMs map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{host, self, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
