package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/experiments"
	"whisper/internal/kernel"
	"whisper/internal/obs"
	"whisper/internal/sched"
	"whisper/internal/server"
	"whisper/internal/snapshot"
)

// The layer ladder times calls into each layer's public functions from
// outside, top to bottom: gateway → server → experiments/sched →
// snapshot/kernel/cpu → core → pipeline → mem/tlb. Where the same input can
// enter one layer lower, the difference is the upper layer's own time.
// Sample counts are fixed, so the ladder costs the same at any --seconds.
const (
	ladderLeaks    = 16   // distinct leak-8 requests on the miss path
	ladderHitReps  = 40   // rounds over those requests on the hit path
	ladderHandler  = 2000 // in-memory handler hits
	ladderAffinity = 2000 // hits sent by two clients for the affinity ratio
	ladderJobs     = 4096 // no-op sched jobs per Map
	ladderBoots    = 200
	ladderMachines = 6
	ladderCaptures = 20
	ladderProbes   = 4000
	ladderLeakB    = 6
	ladderLocates  = 3
	ladderMemOps   = 2_000_000
)

// ladderModel and ladderConfig are the machine the core, kernel and
// snapshot rungs run on: the Kaby Lake part with TSX, as served by default.
var (
	ladderModel  = cpu.I7_7700()
	ladderConfig = kernel.Config{KASLR: true}
)

type ladder struct {
	seed    int64
	tr      *tracer
	metrics map[string]metric

	attempted, failed int

	// simCycles and simTime accumulate simulated cycles and the host time
	// that simulated them, across the core rungs.
	simCycles uint64
	simTime   time.Duration
}

func newLadder(seed int64, tr *tracer) *ladder {
	return &ladder{seed: seed, tr: tr, metrics: make(map[string]metric)}
}

func (l *ladder) set(name, unit string, v float64) { l.metrics[name] = metric{v, unit} }

// check counts one output check of the ladder.
func (l *ladder) check(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		reportFailure(err)
	}
}

func (l *ladder) run() error {
	for _, rung := range []func() error{
		l.serving, l.experiments, l.sched, l.kernelAndSnapshot, l.core, l.memTLB,
	} {
		if err := rung(); err != nil {
			return err
		}
	}
	l.set("pipeline.sim_mcycles_per_s", "Mcycles/s", float64(l.simCycles)/l.simTime.Seconds()/1e6)
	return nil
}

// serving times the leak-8 miss path entered at the gateway, at a fresh
// server, at server.Execute and at core.Farm, then the hit path through the
// gateway, direct to the home backend, and in the home backend's handler.
func (l *ladder) serving() error {
	st, err := startStack(serveBackends)
	if err != nil {
		return err
	}
	defer st.close()
	fresh, fl, err := startServer()
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		fresh.Shutdown(ctx)
		fl.close(ctx)
	}()
	model, _ := server.ModelByName(server.DefaultCPU)

	type hitTarget struct {
		payload []byte
		home    int // index into st.backends
	}
	var (
		targets                    []hitTarget
		execMs, overMs, farmMs     []float64
		gatewayMissMs, freshPostMs []float64
	)
	for i := 0; i < ladderLeaks; i++ {
		req := leakRequest(l.seed, streamLadder, i)
		payload, err := json.Marshal(req)
		if err != nil {
			return err
		}
		op := l.tr.newOp()
		var gw reply
		var dGw, dPost, dExec, dFarm time.Duration
		_, err = l.tr.do(op, 0, "ladder.leak8", func(id int64) error {
			var err error
			if dGw, err = l.tr.do(op, id, "cluster.gateway.miss", func(int64) error {
				gw, err = st.post(st.gateURL(), payload)
				return err
			}); err != nil {
				return err
			}
			l.check(checkLeak(gw, req))
			var direct reply
			if dPost, err = l.tr.do(op, id, "server.post.miss", func(int64) error {
				direct, err = st.post(backendURL(fl), payload)
				return err
			}); err != nil {
				return err
			}
			l.check(checkLeak(direct, req))
			var body []byte
			if dExec, err = l.tr.do(op, id, "server.Execute", func(int64) error {
				body, err = server.Execute(context.Background(), req, backendParallel, nil)
				return err
			}); err != nil {
				return err
			}
			l.check(sameBytes("server.Execute vs gateway", body, gw.body))
			var res core.LeakResult
			if dFarm, err = l.tr.do(op, id, "core.Farm.LeakSecret", func(int64) error {
				f := &core.Farm{Model: model, Config: ladderConfig, RootSeed: req.Seed, Parallel: backendParallel}
				res, err = f.LeakSecret([]byte(req.Secret))
				return err
			}); err != nil {
				return err
			}
			l.check(checkLeakBytes(string(res.Data), req.Secret))
			return nil
		})
		if err != nil {
			return err
		}
		home := -1
		for j, b := range st.blisten {
			if b.addr == gw.backend {
				home = j
			}
		}
		if home < 0 {
			return fmt.Errorf("gateway reply names unknown backend %q", gw.backend)
		}
		targets = append(targets, hitTarget{payload, home})
		gatewayMissMs = append(gatewayMissMs, ms(dGw))
		freshPostMs = append(freshPostMs, ms(dPost))
		execMs = append(execMs, ms(dExec))
		overMs = append(overMs, ms(dPost)-ms(dExec))
		farmMs = append(farmMs, ms(dFarm))
	}
	l.set("server.execute_ms", "ms", median(execMs))
	l.set("server.miss_overhead_ms", "ms", median(overMs))
	l.set("core.farm_leak8_ms", "ms", median(farmMs))
	fmt.Fprintf(os.Stderr, "perfbench: leak-8 miss p50: gateway %.3f ms, fresh server %.3f ms, Execute %.3f ms, Farm %.3f ms\n",
		median(gatewayMissMs), median(freshPostMs), median(execMs), median(farmMs))

	// Hits: the same entries through the gateway and straight to their home.
	var viaGate, direct []float64
	for r := 0; r < ladderHitReps; r++ {
		for _, t := range targets {
			op := l.tr.newOp()
			hit := func(parent int64, name, url string) (float64, error) {
				var rep reply
				d, err := l.tr.do(op, parent, name, func(int64) (err error) {
					rep, err = st.post(url, t.payload)
					return err
				})
				if err == nil {
					l.check(cacheIs(rep, "hit"))
				}
				return us(d), err
			}
			_, err := l.tr.do(op, 0, "ladder.hit", func(id int64) error {
				g, err := hit(id, "cluster.gateway.hit", st.gateURL())
				if err != nil {
					return err
				}
				d, err := hit(id, "server.post.hit", backendURL(st.blisten[t.home]))
				viaGate, direct = append(viaGate, g), append(direct, d)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	l.set("server.hit_http_us", "us", median(direct))
	l.set("cluster.forward_us", "us", median(viaGate)-median(direct))

	// The home backend's handler on an in-memory recorder: no sockets.
	t := targets[0]
	h := st.backends[t.home].Handler()
	reqs := make([]*http.Request, ladderHandler)
	recs := make([]*httptest.ResponseRecorder, ladderHandler)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(t.payload))
		recs[i] = httptest.NewRecorder()
	}
	var handler []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, err = l.tr.do(l.tr.newOp(), 0, "server.Handler.hit", func(int64) error {
		for i := range reqs {
			t0 := time.Now()
			h.ServeHTTP(recs[i], reqs[i])
			handler = append(handler, us(time.Since(t0)))
		}
		return nil
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	for _, rec := range recs[:1] {
		l.check(cacheIs(reply{cache: rec.Header().Get(server.CacheHeader)}, "hit"))
	}
	l.set("server.hit_handler_us", "us", median(handler))
	l.set("server.hit_allocs", "count", float64(ms1.Mallocs-ms0.Mallocs)/ladderHandler)

	// Affinity under two concurrent clients: the bounded-load rule may send
	// a request away from the backend holding its entry.
	var next, hits atomic.Int64
	w := closedLoop(loop{clients: serveClients, dur: time.Minute, maxOps: ladderAffinity}, nil, func(*tracer) (time.Duration, error) {
		t := targets[int(next.Add(1)-1)%len(targets)]
		start := time.Now()
		rep, err := st.post(st.gateURL(), t.payload)
		if err == nil && rep.cache == "hit" {
			hits.Add(1)
		}
		return time.Since(start), err
	})
	l.attempted += w.attempted
	l.failed += w.failed
	l.set("cluster.hit_affinity_ratio", "ratio", float64(hits.Load())/float64(w.attempted))
	lo, hi := uint64(0), uint64(0)
	for i, b := range st.blisten {
		n := st.counter("gate.forwarded", obs.L("backend", b.addr))
		if i == 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	l.set("cluster.backend_skew", "ratio", float64(hi)/float64(max(lo, 1)))
	return checkNoHedges(st)
}

// experiments times each sweep of RunAll, in RunAll order at one worker, in a
// fresh process, and a whole RunAll pass in another; the pass time not
// covered by the sweeps is unattributed.
func (l *ladder) experiments() error {
	op := l.tr.newOp()
	var sweeps map[string]float64
	if _, err := l.tr.do(op, 0, "experiments.sweeps.child", func(int64) error {
		p, err := runChild("-child", "sweeps")
		if err != nil {
			return err
		}
		return json.Unmarshal(p.out, &sweeps)
	}); err != nil {
		return err
	}
	var st passStats
	if _, err := l.tr.do(op, 0, "experiments.pass.child", func(int64) error {
		p, err := runChild("-child", "pass-stats")
		if err != nil {
			return err
		}
		return json.Unmarshal(p.out, &st)
	}); err != nil {
		return err
	}
	sum := 0.0
	for _, name := range reportSweeps {
		v, ok := sweeps[name]
		if !ok {
			return fmt.Errorf("sweeps child reported no %s", name)
		}
		l.set("experiments."+name+"_ms", "ms", v)
		sum += v
	}
	l.set("experiments.unattributed_ms", "ms", st.RunMs-sum)
	l.set("snapshot.memo_hit_ratio", "ratio", ratio(st.MemoHits, st.MemoHits+st.MemoMisses))
	l.set("cpu.pool_reuse_ratio", "ratio", ratio(st.PoolReuses, st.PoolGets))
	return nil
}

// sched times sched.Map over jobs that do nothing, per job.
func (l *ladder) sched() error {
	jobs := make([]sched.Job[int], ladderJobs)
	for i := range jobs {
		jobs[i] = sched.Job[int]{Key: "job/" + strconv.Itoa(i), Run: func(context.Context, int64) (int, error) { return 0, nil }}
	}
	var per []float64
	for r := 0; r < 5; r++ {
		d, err := l.tr.do(l.tr.newOp(), 0, "sched.Map", func(int64) error {
			_, err := sched.Map(context.Background(), sched.Options{Name: "perfbench", Parallel: 1, RootSeed: l.seed}, jobs)
			return err
		})
		if err != nil {
			return err
		}
		per = append(per, us(d)/ladderJobs)
	}
	l.set("sched.job_overhead_us", "us", median(per))
	return nil
}

// kernelAndSnapshot times a pooled machine Get plus kernel.Boot, a cold
// cpu.NewMachine, and snapshot capture and fork of a booted kernel.
func (l *ladder) kernelAndSnapshot() error {
	pool := cpu.NewPool()
	boot := func(i int) (*kernel.Kernel, error) {
		m, err := pool.Get(ladderModel, l.seed+int64(i))
		if err != nil {
			return nil, err
		}
		return kernel.Boot(m, ladderConfig)
	}
	if k, err := boot(0); err == nil {
		pool.Put(k.Machine())
	} else {
		return err
	}
	var boots []time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, err := l.tr.do(l.tr.newOp(), 0, "kernel.boot.loop", func(int64) error {
		for i := 0; i < ladderBoots; i++ {
			t0 := time.Now()
			k, err := boot(i)
			boots = append(boots, time.Since(t0))
			if err != nil {
				return err
			}
			pool.Put(k.Machine())
		}
		return nil
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	l.set("kernel.boot_us", "us", medianDur(boots, time.Microsecond))
	l.set("kernel.boot_allocs", "count", float64(ms1.Mallocs-ms0.Mallocs)/ladderBoots)

	var builds []time.Duration
	for i := 0; i < ladderMachines; i++ {
		d, err := l.tr.do(l.tr.newOp(), 0, "cpu.NewMachine", func(int64) error {
			_, err := cpu.NewMachine(ladderModel, l.seed+int64(i))
			return err
		})
		if err != nil {
			return err
		}
		builds = append(builds, d)
	}
	l.set("cpu.new_machine_ms", "ms", medianDur(builds, time.Millisecond))

	src, err := boot(1)
	if err != nil {
		return err
	}
	var snap *snapshot.Snapshot
	var captures, forks []time.Duration
	for i := 0; i < ladderCaptures; i++ {
		d, err := l.tr.do(l.tr.newOp(), 0, "snapshot.CaptureKernel", func(int64) error {
			var err error
			snap, err = snapshot.CaptureKernel(src)
			return err
		})
		if err != nil {
			return err
		}
		captures = append(captures, d)
	}
	pool.Put(src.Machine())
	_, err = l.tr.do(l.tr.newOp(), 0, "snapshot.ForkKernel.loop", func(int64) error {
		for i := 0; i < ladderBoots; i++ {
			t0 := time.Now()
			k, err := snap.ForkKernel(pool)
			forks = append(forks, time.Since(t0))
			if err != nil {
				return err
			}
			pool.Put(k.Machine())
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("snapshot.capture_us", "us", medianDur(captures, time.Microsecond))
	l.set("snapshot.fork_us", "us", medianDur(forks, time.Microsecond))
	return nil
}

// core times the TET probe, a TET-Meltdown byte, and TET-KASLR, and counts
// the simulated cycles they take.
func (l *ladder) core() error {
	m, err := cpu.NewMachine(ladderModel, l.seed)
	if err != nil {
		return err
	}
	k, err := kernel.Boot(m, ladderConfig)
	if err != nil {
		return err
	}
	secret := []byte(leakRequest(l.seed, streamLadder, ladderLeaks).Secret)
	k.WriteSecret(secret)
	pr, err := core.NewProber(m, core.SuppressTSX, true)
	if err != nil {
		return err
	}
	probes := func() ([]time.Duration, error) {
		lat := make([]time.Duration, 0, ladderProbes)
		for i := 0; i < ladderProbes; i++ {
			t0 := time.Now()
			if _, err := pr.Probe(k.SecretVA(), uint64(i%256), 0); err != nil {
				return nil, err
			}
			lat = append(lat, time.Since(t0))
		}
		return lat, nil
	}
	if _, err := probes(); err != nil { // warm the predictor, caches and TLB
		return err
	}
	var plain []time.Duration
	_, cycles, err := l.simulate(m, "core.Prober.Probe", func() (err error) {
		plain, err = probes()
		return err
	})
	if err != nil {
		return err
	}
	base := medianDur(plain, time.Microsecond)
	l.set("core.probe_us", "us", base)
	l.set("pipeline.cycles_per_probe", "cycles", float64(cycles)/ladderProbes)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < ladderProbes; i++ {
		if _, err := pr.Probe(k.SecretVA(), uint64(i%256), 0); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	l.set("core.probe_allocs", "count", float64(ms1.Mallocs-ms0.Mallocs)/ladderProbes)

	m.EnableObs()
	var withObs []time.Duration
	_, err = l.tr.do(l.tr.newOp(), 0, "core.Prober.Probe.obs", func(int64) (err error) {
		withObs, err = probes()
		return err
	})
	m.Obs = nil
	if err != nil {
		return err
	}
	l.set("obs.enabled_probe_overhead_pct", "%", (medianDur(withObs, time.Microsecond)-base)/base*100)

	md, err := core.NewTETMeltdown(k)
	if err != nil {
		return err
	}
	var leaks []time.Duration
	leaked := make([]byte, ladderLeakB)
	for i := range leaked {
		d, _, err := l.simulate(m, "core.Meltdown.LeakByte", func() (err error) {
			leaked[i], err = md.LeakByte(k.SecretVA() + uint64(i))
			return err
		})
		if err != nil {
			return err
		}
		leaks = append(leaks, d)
	}
	l.check(checkLeakBytes(string(leaked), string(secret[:ladderLeakB])))
	l.set("core.leak_byte_ms", "ms", medianDur(leaks, time.Millisecond))

	km, err := cpu.NewMachine(cpu.I9_10980XE(), l.seed)
	if err != nil {
		return err
	}
	var locates []time.Duration
	for i := 0; i < ladderLocates; i++ {
		kk, err := kernel.Reboot(km, kernel.Config{KASLR: true, KPTI: true}, l.seed+int64(i))
		if err != nil {
			return err
		}
		a, err := core.NewTETKASLR(kk)
		if err != nil {
			return err
		}
		a.Reps = 4
		var res core.KASLRResult
		d, _, err := l.simulate(km, "core.KASLR.Locate", func() (err error) {
			res, err = a.Locate()
			return err
		})
		if err != nil {
			return err
		}
		locates = append(locates, d)
		if res.Base != kk.KASLRBase() {
			err = fmt.Errorf("KASLR.Locate found %#x, base is %#x", res.Base, kk.KASLRBase())
		}
		l.check(err)
	}
	l.set("core.kaslr_locate_ms", "ms", medianDur(locates, time.Millisecond))
	return nil
}

// simulate runs f as span name and adds the simulated cycles m advanced and
// the host time f took to the ladder's simulation rate.
func (l *ladder) simulate(m *cpu.Machine, name string, f func() error) (time.Duration, uint64, error) {
	c0 := m.Pipe.Cycle()
	d, err := l.tr.do(l.tr.newOp(), 0, name, func(int64) error { return f() })
	cycles := m.Pipe.Cycle() - c0
	l.simCycles += cycles
	l.simTime += d
	return d, cycles, err
}

// memTLB times single cache-hierarchy accesses on a working set inside L1
// and on one twice the size of L3, physical-memory reads, and DTLB lookups.
func (l *ladder) memTLB() error {
	m, err := cpu.NewMachine(ladderModel, l.seed)
	if err != nil {
		return err
	}
	k, err := kernel.Boot(m, ladderConfig)
	if err != nil {
		return err
	}
	const line = 64
	perOp := func(name string, f func(i int)) float64 {
		d, _ := l.tr.do(l.tr.newOp(), 0, name, func(int64) error {
			for i := 0; i < ladderMemOps; i++ {
				f(i)
			}
			return nil
		})
		return float64(d.Nanoseconds()) / ladderMemOps
	}
	h := m.Hier
	l1Lines := 64 // 4 KiB, well inside L1D
	l.set("mem.access_l1_ns", "ns", perOp("mem.Hierarchy.AccessData.l1", func(i int) {
		h.AccessData(uint64(i%l1Lines) * line)
	}))
	bigLines := 2 * ladderModel.Hier.L3Size / line
	l.set("mem.access_miss_ns", "ns", perOp("mem.Hierarchy.AccessData.miss", func(i int) {
		h.AccessData(uint64(i%bigLines) * line)
	}))
	pa := uint64(0x200000)
	for p := uint64(0); p < 16; p++ {
		m.Phys.Write(pa+p*4096, 8, p)
	}
	l.set("mem.phys_read_ns", "ns", perOp("mem.Physical.Read", func(i int) {
		m.Phys.Read(pa+uint64(i%16)*4096+uint64(i%8)*8, 8)
	}))
	va := k.SecretVA()
	l.set("tlb.lookup_ns", "ns", perOp("tlb.TLB.Lookup", func(i int) {
		m.DTLB.Lookup(va + uint64(i%4)*4096)
	}))
	return nil
}

// reportSweeps are RunAll's stages in its order, at DefaultReportParams.
var reportSweeps = []string{"table2", "table3", "fig1b", "fig4", "throughput",
	"kaslr", "mitigations", "stealth", "condfamily", "noise"}

// childSweeps is the "-child sweeps" mode: run each RunAll stage through
// experiments.RunSweep at one worker, and print each one's milliseconds.
func childSweeps() error {
	d := experiments.DefaultReportParams()
	p := experiments.SweepParams{Seed: d.Seed, ThroughputBytes: d.ThroughputBytes,
		KASLRReps: d.KASLRReps, Fig1bBatches: d.Fig1bBatches}
	out := make(map[string]float64)
	for _, name := range reportSweeps {
		start := time.Now()
		if _, err := experiments.RunSweep(experiments.Serial(), name, p); err != nil {
			return err
		}
		out[name] = ms(time.Since(start))
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// passStats is what "-child pass-stats" prints.
type passStats struct {
	RunMs      float64 `json:"run_ms"`
	MemoHits   uint64  `json:"memo_hits"`
	MemoMisses uint64  `json:"memo_misses"`
	PoolGets   uint64  `json:"pool_gets"`
	PoolReuses uint64  `json:"pool_reuses"`
}

// childPassStats is the "-child pass-stats" mode: one RunAll pass as in the
// artefacts workload, reporting its time and the snapshot memo and machine
// pool counters it leaves behind.
func childPassStats() error {
	p := experiments.DefaultReportParams()
	p.Parallel = 1
	start := time.Now()
	r, err := experiments.RunAll(p)
	if err != nil {
		return err
	}
	if err := agrees(r.Table2Agrees, r.MitigationsAgree); err != nil {
		return err
	}
	memo, pool := experiments.SnapshotMemoStats(), experiments.MachinePoolStats()
	return json.NewEncoder(os.Stdout).Encode(passStats{
		RunMs: ms(time.Since(start)), MemoHits: memo.Hits, MemoMisses: memo.Misses,
		PoolGets: pool.Gets, PoolReuses: pool.Reuses,
	})
}

func sameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: got %.64q, want %.64q", what, got, want)
	}
	return nil
}

func cacheIs(r reply, want string) error {
	if r.cache != want {
		return fmt.Errorf("cache %q, want %q", r.cache, want)
	}
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
