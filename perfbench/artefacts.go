package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"whisper/internal/experiments"
)

// artefacts regenerates the full RunAll report — what tetbench -json prints
// — at DefaultReportParams with one sched worker, one pass per fresh child
// process, so machine pools and the snapshot memo start cold every pass.
// Its input is the paper's fixed parameter set, so it does not vary with the
// workload seed.
type artefacts struct {
	ref []byte // setup's report; every pass must reproduce it
}

// pass is one child process's run.
type pass struct {
	out   []byte // standard output
	wall  time.Duration
	cpu   time.Duration // the child's user plus system time
	rssMB float64       // the child's peak resident set
}

// runChild runs this binary in a child mode and returns its standard output
// and resource use.
func runChild(args ...string) (pass, error) {
	self, err := os.Executable()
	if err != nil {
		return pass{}, err
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return pass{}, fmt.Errorf("child %v: %w", args, err)
	}
	p := pass{out: out.Bytes(), wall: time.Since(start)}
	ps := cmd.ProcessState
	p.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) / 1024
	}
	return p, nil
}

func (a *artefacts) runPass() (pass, error) {
	return runChild("-child", "pass")
}

// setup runs the untimed warm-up pass whose report every timed pass must
// reproduce.
func (a *artefacts) setup() error {
	p, err := a.runPass()
	if err != nil {
		return err
	}
	if err := checkReport(p.out, nil); err != nil {
		return fmt.Errorf("artefacts warm-up: %w", err)
	}
	a.ref = p.out
	return nil
}

// checkReport accepts a report whose Table 2 and mitigation matrix agree
// with the paper and that, when ref is non-nil, is byte-identical to ref.
func checkReport(got, ref []byte) error {
	if ref != nil && !bytes.Equal(got, ref) {
		return fmt.Errorf("report differs from the run's first pass (%d vs %d bytes)", len(got), len(ref))
	}
	var r struct{ Table2Agrees, MitigationsAgree bool }
	if err := json.Unmarshal(got, &r); err != nil {
		return fmt.Errorf("decoding report: %w", err)
	}
	return agrees(r.Table2Agrees, r.MitigationsAgree)
}

// agrees accepts a report whose Table 2 cells and mitigation matrix match
// the paper.
func agrees(table2, mitigations bool) error {
	if !table2 || !mitigations {
		return fmt.Errorf("report disagrees with the paper: Table2Agrees=%v MitigationsAgree=%v",
			table2, mitigations)
	}
	return nil
}

// measure runs passes back to back with one client until dur has passed.
// CPU and peak RSS are the children's.
func (a *artefacts) measure(dur time.Duration, tr *tracer) window {
	var w window
	var rss []float64
	start := time.Now()
	for time.Since(start) < dur {
		op := tr.newOp()
		var p pass
		_, err := tr.do(op, 0, "artefacts.op", func(id int64) error {
			var err error
			if _, err = tr.do(op, id, "child.pass", func(int64) error {
				p, err = a.runPass()
				return err
			}); err != nil {
				return err
			}
			_, err = tr.do(op, id, "check", func(int64) error { return checkReport(p.out, a.ref) })
			return err
		})
		w.attempted++
		if err != nil {
			w.failed++
			reportFailure(err)
			continue
		}
		w.lat = append(w.lat, ms(p.wall))
		w.opCPU = append(w.opCPU, ms(p.cpu))
		rss = append(rss, p.rssMB)
	}
	w.rssMB = median(rss)
	return w
}

func (a *artefacts) verify(*window) error { return nil }

func (a *artefacts) close() {}

// childPass is the "-child pass" mode: one RunAll report on standard output.
func childPass() error {
	p := experiments.DefaultReportParams()
	p.Parallel = 1
	r, err := experiments.RunAll(p)
	if err != nil {
		return err
	}
	return r.WriteJSON(os.Stdout)
}
