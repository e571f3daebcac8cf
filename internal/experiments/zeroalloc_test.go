package experiments

// Regression tests for the PR-6 zero-alloc core: the steady-state PMD loop
// must not touch the heap, and the robustness scenarios must stay
// byte-identical run to run under the same seed (the determinism contract
// the flat event wheel and the packet arenas both promise to preserve).

import (
	"testing"

	"ovsxdp/internal/sim"
)

// TestSteadyStatePMDLoopZeroAlloc drives the standard single-flow AF_XDP
// P2P bed past warmup, then asserts that advancing the simulation — NIC
// receive, XDP program, XSK rings, PMD poll, classification, transmit —
// performs zero heap allocations per slice. This is the acceptance gate for
// the event-wheel + arena refactor: any per-packet make/append/closure that
// creeps back into the hot path fails this test.
func TestSteadyStatePMDLoopZeroAlloc(t *testing.T) {
	bed := NewP2PBed(DefaultBed(KindAFXDP, 1))
	const (
		ratePPS = 2e6
		runs    = 50
	)
	warmup := 2 * sim.Millisecond
	slice := 200 * sim.Microsecond
	// AllocsPerRun invokes the function runs+1 times (one untimed warmup
	// call); schedule generation to cover the whole span with margin.
	bed.Gen.Run(ratePPS, warmup+sim.Time(runs+4)*slice)
	bed.Eng.RunUntil(warmup)

	deliveredBefore := bed.Delivered
	now := warmup
	avg := testing.AllocsPerRun(runs, func() {
		now += slice
		bed.Eng.RunUntil(now)
	})
	if bed.Delivered == deliveredBefore {
		t.Fatal("no packets delivered during the measured window")
	}
	if avg != 0 {
		t.Fatalf("steady-state PMD loop allocates: %.2f allocs per %v slice (want 0)", avg, slice)
	}
}

// TestScenariosSameSeedByteIdentical runs each deterministic robustness
// scenario twice in one process and compares the rendered reports byte for
// byte. Every scenario builds its own engine from the same fixed seed, so
// any divergence means hidden state leaked between runs or ordering became
// nondeterministic (e.g. a map-iteration dependence in the event wheel or
// the arenas).
func TestScenariosSameSeedByteIdentical(t *testing.T) {
	for _, id := range []string{"restart", "cachesweep", "corescale", "churnscale", "connscale", "offload"} {
		sc, ok := GetScenario(id)
		if !ok {
			t.Fatalf("scenario %s not registered", id)
		}
		first, _ := sc.Run(Quick, nil)
		second, _ := sc.Run(Quick, nil)
		if first.String() != second.String() {
			t.Errorf("scenario %s diverged between same-seed runs:\n--- first\n%s\n--- second\n%s",
				id, first, second)
		}
	}
}
