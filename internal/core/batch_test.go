package core

import (
	"testing"

	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// TestBatchDedupMatchesPerPacketOutcomes runs the same burst through the
// forwarding bed with batch-aware classification on and off: every
// observable outcome (deliveries, hit split, upcalls) must match — the
// optimization may only change what the classification costs, never what
// it decides. The batched run's classification stages must also be
// strictly cheaper in virtual time, since followers skip the full cache
// probe (total busy time is poll-spin dominated, so the stage counters are
// the meaningful comparison).
func TestBatchDedupMatchesPerPacketOutcomes(t *testing.T) {
	run := func(dedup bool) (recvd int, hits [4]uint64, classify sim.Time) {
		opts := DefaultOptions()
		opts.BatchDedup = dedup
		bed := newAFXDPP2P(t, opts, afxdp.LockSpinBatched, ModePoll)
		// One packet warms the flow (upcall + cache install), then a burst
		// the PMD drains in full rx batches — the shape the same-flow dedup
		// is built for.
		bed.offer(1, 0)
		for i := 0; i < 99; i++ {
			bed.eng.Schedule(100*sim.Microsecond, func() {
				bed.nicA.Receive(udpPkt(7777))
				bed.sent++
			})
		}
		bed.eng.RunUntil(10 * sim.Millisecond)
		dp := bed.dp
		s := bed.pmd.Perf
		classify = s.Cycles[perf.StageRx] + s.Cycles[perf.StageEMC] +
			s.Cycles[perf.StageSMC] + s.Cycles[perf.StageDpcls]
		return bed.recvd,
			[4]uint64{dp.EMCHits, dp.SMCHits, dp.MegaflowHits, dp.Upcalls},
			classify
	}

	recvd0, hits0, busy0 := run(false)
	recvd1, hits1, busy1 := run(true)
	if recvd0 != 100 || recvd1 != 100 {
		t.Fatalf("delivered %d/%d, want 100/100", recvd0, recvd1)
	}
	if hits0 != hits1 {
		t.Fatalf("hit split diverges: per-packet %v, batched %v", hits0, hits1)
	}
	if sum := hits1[0] + hits1[1] + hits1[2] + hits1[3]; sum != 100 {
		t.Fatalf("hit split sums to %d, want 100", sum)
	}
	if busy1 >= busy0 {
		t.Fatalf("batched classification not cheaper: %d >= %d virtual ns", busy1, busy0)
	}
}

// TestBatchDedupReleasesDroppedPackets drives a burst of one flow through a
// drop megaflow (an empty pipeline's table-miss drop — the shape of the
// negative flow the slow path installs): the batched path must hand every
// dropped packet back to the port's rx arena exactly as the per-packet path
// does, or the arena drains and never recovers.
func TestBatchDedupReleasesDroppedPackets(t *testing.T) {
	run := func(dedup bool) (drops uint64, avail int) {
		opts := DefaultOptions()
		opts.BatchDedup = dedup
		bed := newAFXDPP2P(t, opts, afxdp.LockSpinBatched, ModePoll)
		bed.dp.Pipeline = ofproto.NewPipeline()
		bed.offer(1, 0)
		for i := 0; i < 299; i++ {
			bed.eng.Schedule(100*sim.Microsecond, func() { bed.nicA.Receive(udpPkt(7777)) })
		}
		bed.eng.RunUntil(10 * sim.Millisecond)
		return bed.dp.Drops, bed.dp.Port(1).(*AFXDPPort).rxPool.Available()
	}
	drops0, avail0 := run(false)
	drops1, avail1 := run(true)
	if drops0 != 300 || drops1 != 300 {
		t.Fatalf("dropped %d/%d, want 300/300", drops0, drops1)
	}
	if avail0 != rxPoolSize || avail1 != avail0 {
		t.Fatalf("rx arena after the burst: per-packet %d, batched %d, want %d both", avail0, avail1, rxPoolSize)
	}
}

// TestBatchDedupCyclesStayAttributed keeps the perf invariant under the
// batched fast path: every virtual cycle the PMD consumes lands in exactly
// one stage counter.
func TestBatchDedupCyclesStayAttributed(t *testing.T) {
	opts := DefaultOptions()
	opts.BatchDedup = true
	bed := newAFXDPP2P(t, opts, afxdp.LockSpinBatched, ModePoll)
	bed.offer(100, 0)
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
	if s.EMCHits+s.SMCHits+s.MegaflowHits+s.Upcalls != s.Packets {
		t.Fatalf("hit split %d+%d+%d+%d != packets %d",
			s.EMCHits, s.SMCHits, s.MegaflowHits, s.Upcalls, s.Packets)
	}
}

// batchBed builds a datapath + PMD pair for driving processBatch directly,
// with a prebuilt rx batch cycling through nflows flows.
func batchBed(dedup, smcOn bool, nflows int) (*Datapath, *PMD, []*packet.Packet) {
	eng := sim.NewEngine(1)
	opts := DefaultOptions()
	opts.BatchDedup = dedup
	opts.SMC = smcOn
	dp := NewDatapath(eng, outputPipeline(2), opts)
	dp.AddPort(&sinkPort{id: 1, name: "in"})
	dp.AddPort(&sinkPort{id: 2, name: "out"})
	m := dp.NewPMD(ModeNonPMD, nil)
	pkts := make([]*packet.Packet, 32)
	for i := range pkts {
		pkts[i] = inPkt(uint16(4000 + i%nflows))
	}
	return dp, m, pkts
}

// TestBatchClassifyZeroAlloc pins the steady-state allocation contract: once
// the caches are warm and the PMD scratch slices have grown, classifying a
// full rx batch allocates nothing.
func TestBatchClassifyZeroAlloc(t *testing.T) {
	dp, m, pkts := batchBed(true, false, 4)
	dp.processBatch(m, pkts) // warm: upcalls + scratch growth
	if allocs := testing.AllocsPerRun(100, func() {
		dp.processBatch(m, pkts)
	}); allocs != 0 {
		t.Fatalf("steady-state batch classify allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkBatchClassify measures the batched fast path on a warm cache: a
// 32-packet batch of 4 interleaved flows, leaders probing the hierarchy and
// followers riding the dedup.
func BenchmarkBatchClassify(b *testing.B) {
	dp, m, pkts := batchBed(true, false, 4)
	dp.processBatch(m, pkts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.processBatch(m, pkts)
	}
}

// BenchmarkPerPacketClassify is the baseline the dedup is measured against:
// the identical batch, classified packet by packet.
func BenchmarkPerPacketClassify(b *testing.B) {
	dp, m, pkts := batchBed(false, false, 4)
	dp.processBatch(m, pkts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.processBatch(m, pkts)
	}
}
