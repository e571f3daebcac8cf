package experiments

// Regression tests for the PR-6 zero-alloc core: the steady-state PMD loop
// must not touch the heap, and the robustness scenarios must stay
// byte-identical run to run under the same seed (the determinism contract
// the flat event wheel and the packet arenas both promise to preserve).

import (
	"testing"

	"ovsxdp/internal/sim"
	"ovsxdp/internal/trafficgen"
	"ovsxdp/internal/xdp"
)

// TestSteadyStatePMDLoopZeroAlloc drives three beds past warmup at 2 Mpps,
// then asserts that advancing the simulation performs zero heap allocations
// per slice: the single-flow AF_XDP P2P bed (NIC receive, XDP program, XSK
// rings, PMD poll, classification, transmit), Table 5's bed running task A,
// and the PCP bed whose XDP programs redirect NIC A to the container's veth
// and the veth to NIC B. This is the acceptance gate for the event-wheel +
// arena refactor and for the one XDP driver stage: any per-packet
// make/append/closure that creeps back into the hot path, or a stage that
// keeps a frame it ends and so drains the generator's pool, fails it.
func TestSteadyStatePMDLoopZeroAlloc(t *testing.T) {
	type run struct {
		eng  *sim.Engine
		gen  *trafficgen.UDPGen
		done func() uint64 // packets through the bed so far
	}
	loopback := func(b *Bed) run { return run{b.Eng, b.Gen, func() uint64 { return b.Delivered }} }
	for _, tc := range []struct {
		name string
		bed  func() run
	}{
		{"afxdp-p2p", func() run { return loopback(NewP2PBed(DefaultBed(KindAFXDP, 1))) }},
		{"table5-task-a", func() run {
			b := newXDPBed(xdp.NewDropAll(), 1)
			return run{b.eng, b.gen, b.processed}
		}},
		{"pcp-afxdp-xdp-redirect", func() run { return loopback(NewPCPBed(PCPAFXDPRedir, 1)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bed := tc.bed()
			const (
				ratePPS = 2e6
				runs    = 50
			)
			warmup := 4 * sim.Millisecond
			slice := 200 * sim.Microsecond
			// AllocsPerRun invokes the function runs+1 times (one untimed
			// warmup call); schedule generation to cover the whole span
			// with margin.
			bed.gen.Run(ratePPS, warmup+sim.Time(runs+4)*slice)
			bed.eng.RunUntil(warmup)

			before := bed.done()
			now := warmup
			avg := testing.AllocsPerRun(runs, func() {
				now += slice
				bed.eng.RunUntil(now)
			})
			if bed.done() == before {
				t.Fatal("no packets through the bed during the measured window")
			}
			if avg != 0 {
				t.Fatalf("steady state allocates: %.2f allocs per %v slice (want 0)", avg, slice)
			}
		})
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
