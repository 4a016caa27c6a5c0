package pipeline

import (
	"fmt"
	"testing"

	"whisper/internal/isa"
)

// spinSled is long enough for a transient window to fill the ROB (224) and
// then the IDQ (64): fetch spins against the full IDQ until the clear.
const spinSled = 320

// spinGadget assembles a TET gadget that keeps fetch spinning against a full
// IDQ: the faulting load's address comes from a flushed pointer at dataBase,
// so the window opens a DRAM miss late, and the nop sled behind it fills the
// ROB and then the IDQ meanwhile. The prober shape (kaslr false) compares the
// transiently loaded byte against RDX; the KASLR shape only times the fault.
// With tsx the window is a transaction, otherwise the fault is suppressed by
// the signal handler at prog.Len()-2 (the "abort" label).
func spinGadget(kaslr, tsx bool) *isa.Program {
	bb := b().
		MovImm(isa.RCX, dataBase).
		Clflush(isa.RCX, 0).
		Mfence().
		Rdtsc(isa.RSI).
		Lfence()
	if tsx {
		bb.Xbegin("abort")
	}
	bb.LoadQ(isa.RBX, isa.RCX, 0).
		LoadB(isa.RAX, isa.RBX, 0)
	if !kaslr {
		bb.Cmp(isa.RAX, isa.RDX).
			Jcc(isa.CondE, "taken").
			Lfence().
			Jmp("end").
			Label("taken").
			Nop().
			Label("end")
	}
	bb.NopSled(spinSled)
	if tsx {
		bb.Xend()
	}
	return bb.Halt().
		Label("abort").
		Rdtsc(isa.RDI).
		Halt().
		MustAssemble()
}

// spinEnv is a test core with the default RDTSC noise and interrupt model, so
// the differential also pins the RNG draw sequence, holding 'S' at kernBase.
// mite, when set, keeps every fetch on the legacy decode path (a resteer's
// MITE window that never closes), so the spin counts MITE cycles instead of
// touching the DSB.
func spinEnv(t *testing.T, prog *isa.Program, tsx, mite bool) *env {
	e := newEnv(t, func(c *Config) {
		d := DefaultConfig()
		c.NoiseSigma, c.InterruptProb = d.NoiseSigma, d.InterruptProb
		if mite {
			c.MITEResteer = 1 << 30
		}
	})
	e.phys.Write(e.kpa(kernBase), 1, 'S')
	if !tsx {
		e.p.SetSignalHandler(prog.Len() - 2)
	}
	// One fault-free pass retires the whole sled, so its code is cached and
	// fetch is never held up by an icache miss inside a window.
	e.writeData(dataBase, 8, dataBase+64)
	e.run(prog)
	return e
}

// setTrigger arms one round: the prober shape matches the secret (the
// transient Jcc fires) or not; the KASLR shape probes a mapped kernel page or
// an unmapped address.
func (e *env) setTrigger(kaslr, trigger bool) {
	target := uint64(kernBase)
	if kaslr && !trigger {
		target = unmappedVA
	}
	e.writeData(dataBase, 8, target)
	if trigger {
		e.p.SetReg(isa.RDX, 'S')
	} else {
		e.p.SetReg(isa.RDX, 'S'+1)
	}
}

// lockstep runs prog one cycle per StepCycle, never skipping ahead.
func (e *env) lockstep(prog *isa.Program) Result {
	e.t.Helper()
	e.p.BeginExec(prog, 2_000_000)
	for {
		done, err := e.p.StepCycle()
		if err != nil {
			e.t.Fatalf("StepCycle: %v", err)
		}
		if done {
			return e.p.ExecResult()
		}
	}
}

// observable is everything a later run or the harness can see of a core.
func (e *env) observable() string {
	var regs [isa.NumRegs]uint64
	for r := range regs {
		regs[r] = e.p.Reg(isa.Reg(r))
	}
	return fmt.Sprintf("cycle=%d regs=%x clears=%v dsb=%v pmu=%v",
		e.p.Cycle(), regs, e.p.Clears(), e.p.DSBState(), e.pm.Snapshot())
}

// TestSkipAheadMatchesLockstep is the differential test of the skip-ahead:
// Exec (which fast-forwards idle spans, including fetch spinning against a
// full IDQ) and StepCycle (which steps every cycle) must leave identical
// cycle counts, PMU banks, registers, clear traces and DSB state, round
// after round on one warm core, with the transient trigger alternating.
func TestSkipAheadMatchesLockstep(t *testing.T) {
	for _, mite := range []bool{false, true} {
		for _, kaslr := range []bool{false, true} {
			for _, tsx := range []bool{true, false} {
				t.Run(fmt.Sprintf("mite=%v/kaslr=%v/tsx=%v", mite, kaslr, tsx), func(t *testing.T) {
					prog := spinGadget(kaslr, tsx)
					ff, ls := spinEnv(t, prog, tsx, mite), spinEnv(t, prog, tsx, mite)
					for round := 0; round < 24; round++ {
						trigger := round%2 == 0
						ff.setTrigger(kaslr, trigger)
						ls.setTrigger(kaslr, trigger)
						got, want := ff.run(prog), ls.lockstep(prog)
						if got != want {
							t.Fatalf("round %d: Exec %+v, lockstep %+v", round, got, want)
						}
						if got.Faults != 1 {
							t.Fatalf("round %d: %d faults, want 1", round, got.Faults)
						}
						if g, w := ff.observable(), ls.observable(); g != w {
							t.Fatalf("round %d diverged:\n  Exec     %s\n  lockstep %s", round, g, w)
						}
					}
				})
			}
		}
	}
}

// TestSkipAheadSpinCensus pins how many steps Exec takes for a full-IDQ
// faulting gadget (an attached InvariantChecker audits once per step). Fetch
// spinning against the full IDQ for the ~260 cycles before the clear is
// fast-forwarded, so the run takes 91 steps for its 685 cycles; stepping
// every spinning cycle took 351.
func TestSkipAheadSpinCensus(t *testing.T) {
	const maxSteps = 100
	prog := spinGadget(true, true)
	e := spinEnv(t, prog, true, false)
	e.setTrigger(true, true)
	e.run(prog)
	c := NewInvariantChecker()
	e.p.SetInvariantChecker(c)
	res := e.run(prog)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Faults != 1 {
		t.Fatalf("%d faults, want 1", res.Faults)
	}
	if c.Checks() > maxSteps {
		t.Fatalf("%d steps for %d cycles, want at most %d: the full-IDQ spin is being stepped",
			c.Checks(), res.Cycles, maxSteps)
	}
}
