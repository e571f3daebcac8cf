package core

import (
	"testing"

	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// Every virtual cycle a PMD consumes must be attributed to exactly one perf
// stage: the counters are recorded alongside the CPU charges, so their sum
// equals the thread's busy time (single PMD, no contention surcharge).
func TestPerfCyclesMatchCPUBusyTime(t *testing.T) {
	bed := newAFXDPP2P(t, Options{}, afxdp.LockSpinBatched, ModePoll)
	bed.offer(100, 1000)
	bed.eng.RunUntil(10 * sim.Millisecond)
	if bed.recvd != 100 {
		t.Fatalf("received %d/100", bed.recvd)
	}
	s := bed.pmd.Perf
	if s.Packets != 100 {
		t.Fatalf("perf packets = %d, want 100", s.Packets)
	}
	if got, want := s.TotalCycles(), bed.pmd.CPU.BusyTotal(); got != want {
		t.Fatalf("stage cycles sum to %d, CPU busy %d — unattributed or double-counted work", got, want)
	}
	if s.EMCHits+s.MegaflowHits+s.Upcalls != s.Packets {
		t.Fatalf("hit split %d+%d+%d != packets %d",
			s.EMCHits, s.MegaflowHits, s.Upcalls, s.Packets)
	}
	if s.Cycles[perf.StageRx] == 0 || s.Cycles[perf.StageEMC] == 0 ||
		s.Cycles[perf.StageActions] == 0 {
		t.Fatalf("rx/emc/actions stages empty: %v", s.Cycles)
	}
	if s.UpcallCount() != 1 {
		t.Fatalf("upcall latency samples = %d, want 1", s.UpcallCount())
	}
	if s.BatchMean() <= 0 {
		t.Fatal("batch histogram empty")
	}
}

// Enabling the packet-lifecycle trace must not perturb virtual time: two
// identical runs, one traced, must agree on every observable outcome.
func TestTraceDoesNotPerturbVirtualTime(t *testing.T) {
	run := func(traceDepth int) (recvd int, busy sim.Time, now sim.Time, recs []perf.TraceRecord) {
		bed := newAFXDPP2P(t, Options{}, afxdp.LockSpinBatched, ModePoll)
		if traceDepth > 0 {
			bed.dp.EnableTrace(traceDepth)
		}
		bed.offer(50, 1000)
		bed.eng.RunUntil(5 * sim.Millisecond)
		return bed.recvd, bed.pmd.CPU.BusyTotal(), bed.eng.Now(), bed.pmd.Perf.Trace()
	}

	r0, busy0, now0, recs0 := run(0)
	r1, busy1, now1, recs1 := run(8)
	if r0 != r1 || busy0 != busy1 || now0 != now1 {
		t.Fatalf("tracing changed outcomes: recvd %d/%d busy %d/%d now %d/%d",
			r0, r1, busy0, busy1, now0, now1)
	}
	if recs0 != nil {
		t.Fatal("trace must be off by default")
	}
	if len(recs1) != 8 {
		t.Fatalf("retained %d lifecycles, want 8", len(recs1))
	}
	for _, r := range recs1 {
		if r.InPort != 1 || r.OutPort != 2 {
			t.Fatalf("lifecycle ports %d->%d, want 1->2", r.InPort, r.OutPort)
		}
		if r.End < r.Start {
			t.Fatalf("lifecycle span inverted: %v -> %v", r.Start, r.End)
		}
		if r.Result == perf.ResultNone {
			t.Fatal("lifecycle missing resolution level")
		}
	}
}

// The trace records the caching level that resolved each packet: first an
// upcall, then EMC hits.
func TestTraceRecordsResolutionLevels(t *testing.T) {
	bed := newAFXDPP2P(t, Options{}, afxdp.LockSpinBatched, ModePoll)
	bed.dp.EnableTrace(64)
	bed.offer(20, 1000)
	bed.eng.RunUntil(5 * sim.Millisecond)
	recs := bed.pmd.Perf.Trace()
	if len(recs) != 20 {
		t.Fatalf("traced %d, want 20", len(recs))
	}
	if recs[0].Result != perf.ResultUpcall {
		t.Fatalf("first packet resolved via %v, want upcall", recs[0].Result)
	}
	emc := 0
	for _, r := range recs[1:] {
		if r.Result == perf.ResultEMC {
			emc++
		}
	}
	if emc < 17 {
		t.Fatalf("only %d/19 successors hit the EMC", emc)
	}
}
