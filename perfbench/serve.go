package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"whisper/internal/experiments"
	"whisper/internal/server"
)

// The serving workload: a closed loop of clients against an in-process
// whispergate in front of two in-process whisperd backends.
const (
	serveClients  = 2
	serveBackends = 2
	// hitWarmup is how many untimed ops setup sends: the first stretch of a
	// run has a higher tail while pools and the heap grow.
	hitWarmup = 2000
	// sliceLen is the shortest slice of a timed window, and maxSlices caps
	// their number, so a 50 s window splits into ten 5 s slices.
	sliceLen  = 3 * time.Second
	maxSlices = 10
	// hitRSSAfter is the op count at which peak RSS is read: about a quarter
	// of a 50 s window on a 2-vCPU host. The servers keep a span per request,
	// so memory grows with the requests served.
	hitRSSAfter = 50_000
)

// serveLoop configures serve_hit's timed closed loop.
func serveLoop(dur time.Duration) loop {
	return loop{clients: serveClients, dur: dur, slices: min(max(int(dur/sliceLen), 1), maxSlices), rssAfter: hitRSSAfter}
}

// checkLeak accepts a cold reply that missed the cache and whose leaked data
// is the planted secret.
func checkLeak(r reply, req server.Request) error {
	if r.cache != "miss" {
		return fmt.Errorf("leak seed %d: cache %q, want miss", req.Seed, r.cache)
	}
	var env struct {
		Result server.LeakOutcome `json:"result"`
	}
	if err := json.Unmarshal(r.body, &env); err != nil {
		return fmt.Errorf("leak seed %d: %w", req.Seed, err)
	}
	if err := checkLeakBytes(env.Result.Data, req.Secret); err != nil {
		return fmt.Errorf("leak seed %d: %w", req.Seed, err)
	}
	return nil
}

// leakBytesWrong and leakBytesChecked count, over the run, the leaked bytes
// that differ from the planted ones and all bytes checked.
var leakBytesWrong, leakBytesChecked atomic.Int64

// checkLeakBytes applies the repository's attack success criterion
// (EXPERIMENTS.md, E2): a leak succeeds when at most a quarter of its bytes
// are wrong. The simulated TET-Meltdown decode misreads about one byte in a
// thousand, so an exact match would fail requests the attack got right by
// its own definition; wrong bytes are counted and printed instead. The
// planted secrets are ASCII and the served data is a JSON string, in which a
// misread byte that is not valid UTF-8 arrives as U+FFFD, so the comparison
// is by rune.
func checkLeakBytes(got, want string) error {
	g := []rune(got)
	wrong := max(len(g)-len(want), 0)
	for i := 0; i < len(want); i++ {
		if i >= len(g) || g[i] != rune(want[i]) {
			wrong++
		}
	}
	leakBytesWrong.Add(int64(wrong))
	leakBytesChecked.Add(int64(len(want)))
	if 4*wrong > len(want) {
		return fmt.Errorf("leaked %q, planted %q: %d of %d bytes wrong", got, want, wrong, len(want))
	}
	return nil
}

// serveHit cycles, in a seeded order, over every servable sweep at default
// parameters; setup fills them through the gateway, so requests hit.
type serveHit struct {
	seed  int64
	st    *stack
	order []string
	reqs  map[string][]byte // request payload by sweep
	fill  map[string][]byte // the fill response by sweep
	next  atomic.Int64
	// spills counts requests the gateway's bounded-load rule sent away from
	// the backend holding the entry, which then missed and simulated.
	spills atomic.Int64
}

func (w *serveHit) setup() error {
	st, err := startStack(serveBackends)
	if err != nil {
		return err
	}
	w.st = st
	w.order = hitOrder(w.seed)
	w.reqs = make(map[string][]byte)
	w.fill = make(map[string][]byte)
	for _, name := range experiments.Sweeps() {
		payload, err := json.Marshal(server.Request{Experiment: name})
		if err != nil {
			return err
		}
		r, err := st.post(st.gateURL(), payload)
		if err != nil {
			return fmt.Errorf("serve_hit fill %s: %w", name, err)
		}
		w.reqs[name], w.fill[name] = payload, r.body
	}
	warm := closedLoop(loop{clients: serveClients, dur: time.Minute, maxOps: hitWarmup}, nil, w.op)
	if warm.failed > 0 {
		return fmt.Errorf("serve_hit warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	w.spills.Store(0)
	return nil
}

func (w *serveHit) measure(dur time.Duration, tr *tracer) window {
	return closedLoop(serveLoop(dur), tr, w.op)
}

// op sends the next sweep request through the gateway; the body must equal
// the fill response.
func (w *serveHit) op(tr *tracer) (time.Duration, error) {
	name := w.order[int(w.next.Add(1)-1)%len(w.order)]
	op := tr.newOp()
	var lat time.Duration
	_, err := tr.do(op, 0, "serve_hit.op", func(id int64) error {
		var r reply
		var err error
		lat, err = tr.do(op, id, "gateway.post", func(int64) error {
			r, err = w.st.post(w.st.gateURL(), w.reqs[name])
			return err
		})
		if err != nil {
			return err
		}
		_, err = tr.do(op, id, "check", func(int64) error {
			if !bytes.Equal(r.body, w.fill[name]) {
				return fmt.Errorf("serve_hit %s: body differs from its fill response", name)
			}
			if r.cache != "hit" {
				w.spills.Add(1)
			}
			return nil
		})
		return err
	})
	return lat, err
}

func (w *serveHit) verify(*window) error { return checkNoHedges(w.st) }

func (w *serveHit) close() {
	if w.st != nil {
		w.st.close()
	}
}

// checkNoHedges fails the run if the gateway hedged: hedging is configured
// off, and on one host a hedge would only duplicate work on the same CPUs.
func checkNoHedges(st *stack) error {
	if n := st.counter("gate.hedges.fired"); n != 0 {
		return fmt.Errorf("gate.hedges.fired = %d with hedging off", n)
	}
	return nil
}
