package fuzzgen_test

import (
	"testing"

	"whisper/internal/fuzzgen"
)

// baselineSeeds are inputs added to every fuzz target in addition to the
// committed corpus: the degenerate empties plus a small deterministic stream,
// so a corpus-less checkout still exercises each target's main path.
func baselineSeeds() [][]byte {
	long := make([]byte, 64)
	for i := range long {
		long[i] = byte(i * 7)
	}
	return [][]byte{{}, {0}, long}
}

func fuzzTarget(f *testing.F, name string) {
	t, ok := fuzzgen.TargetByName(name)
	if !ok {
		f.Fatalf("unknown fuzz target %q", name)
	}
	for _, seed := range baselineSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(tt *testing.T, data []byte) {
		if err := t.Check(data); err != nil {
			tt.Fatalf("%s: %v", t.Name, err)
		}
	})
}

// FuzzInterpVsPipeline is the differential target: the sequential
// architectural interpreter and the out-of-order pipeline must leave
// identical architectural state on every generated program, including ones
// with faulting transient windows.
func FuzzInterpVsPipeline(f *testing.F) { fuzzTarget(f, "FuzzInterpVsPipeline") }

// FuzzPipelineInvariants drives machine-reuse, SMT-lockstep and kernel-probe
// harnesses with a pipeline.InvariantChecker attached, failing on any
// structural breach (occupancy bounds, retire order, uop leaks across Reset).
// The machine-reuse harness also replays each run on a lockstep twin and
// fails when skip-ahead and per-cycle stepping disagree.
func FuzzPipelineInvariants(f *testing.F) { fuzzTarget(f, "FuzzPipelineInvariants") }

// FuzzServerCanonicalization checks the serving cache's contract: Normalize
// is an idempotent fixpoint, Hash is stable, and distinct canonical requests
// never collide.
func FuzzServerCanonicalization(f *testing.F) { fuzzTarget(f, "FuzzServerCanonicalization") }

// FuzzSnapshotRestore captures machines and booted kernels mid-workload and
// replays the identical remainder on the capture source and on forks (fresh
// and dirty-pooled), asserting cycle counts, registers, PMU bank, RNG cursor,
// and physical memory are bit-identical.
func FuzzSnapshotRestore(f *testing.F) { fuzzTarget(f, "FuzzSnapshotRestore") }

// FuzzRingAssignment feeds arbitrary backend sets and request keys into the
// cluster's consistent-hash ring, asserting total, panic-free, in-range,
// deterministic assignment and the minimal-remap property.
func FuzzRingAssignment(f *testing.F) { fuzzTarget(f, "FuzzRingAssignment") }
