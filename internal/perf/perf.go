// Package perf is the per-PMD performance-counter and tracing layer, the
// analog of OVS's lib/dpif-netdev-perf (surfaced by `ovs-appctl
// dpif-netdev/pmd-perf-show`). Each packet-processing thread — a userspace
// PMD or a kernel/eBPF softirq context — owns one Stats block that buckets
// the virtual cycles it charges by datapath stage (rx, EMC lookup, dpcls
// lookup, upcall, actions/tx, idle spin), tallies cache hit levels, and
// keeps packets-per-batch and upcall-latency histograms.
//
// Everything here is pure accounting: recording copies the cost a caller
// has already charged to its sim.CPU, so enabling the counters (they are
// always on) or the optional packet-lifecycle trace never perturbs virtual
// time, and measured experiment outputs stay byte-identical.
package perf

import (
	"fmt"

	"ovsxdp/internal/sim"
)

// Stage is one bucket of datapath fast-path work. The buckets mirror the
// dpif-netdev-perf counters: rx covers device receive plus metadata and
// flow-key extraction (miniflow_extract); EMC and Dpcls are the two caching
// layers; Upcall is the slow-path translation of a miss; Actions covers
// action execution and transmit; Idle is the busy-poll spin on empty
// iterations (PMD_CYCLES_ITER_IDLE).
type Stage int

// Datapath stages.
const (
	StageRx Stage = iota
	// StageOffload is the hardware-offload short-circuit: packets the NIC
	// forwarded from its flow table, charged only the near-zero host-side
	// bookkeeping. Zero unless hw-offload is enabled.
	StageOffload
	StageEMC
	StageSMC
	StageDpcls
	StageUpcall
	StageActions
	StageIdle
	NumStages
)

// String names the stage as printed by pmd-perf-show.
func (s Stage) String() string {
	switch s {
	case StageRx:
		return "rx"
	case StageOffload:
		return "offload"
	case StageEMC:
		return "emc"
	case StageSMC:
		return "smc"
	case StageDpcls:
		return "dpcls"
	case StageUpcall:
		return "upcall"
	case StageActions:
		return "actions"
	case StageIdle:
		return "idle"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Stats is one thread's performance-counter block. Cycle counters are
// virtual time (sim.Time) charged by the thread, bucketed by stage; the
// hit counters split packets by the caching layer that resolved them,
// exactly the EMC-hit / megaflow-hit / miss triple of Figure 9's analysis.
// The zero Stats is empty and ready to use (tracing disabled), and it
// records in constant memory: it does not grow with the traffic it has seen.
type Stats struct {
	// Cycles accumulates charged virtual time per stage.
	Cycles [NumStages]sim.Time

	// Iterations counts poll-loop passes (PMD) or NAPI batches (kernel).
	Iterations uint64
	// Packets counts packets processed.
	Packets uint64
	// EMCHits / SMCHits / MegaflowHits / Upcalls split Packets by
	// resolution level. SMCHits stays zero unless the signature match
	// cache is enabled.
	EMCHits      uint64
	SMCHits      uint64
	MegaflowHits uint64
	Upcalls      uint64
	// OffloadHits counts packets the NIC forwarded from its hardware flow
	// table — resolved above every software cache. Zero unless hw-offload
	// is enabled.
	OffloadHits uint64

	// UpcallQueueDrops counts packets this thread dropped because its
	// bounded upcall queue was full (the netdev analog of the kernel's
	// ENOBUFS on the netlink socket); UpcallQueuePeak is the deepest the
	// queue got. Both stay zero when the queue is unbounded (inline
	// upcalls).
	UpcallQueueDrops uint64
	UpcallQueuePeak  uint64

	// TxContended counts packets this thread transmitted over a shared
	// tx queue (XPS: more PMD threads than the egress port has txqs);
	// TxLockCycles is the virtual time the shared-txq spinlock cost, paid
	// once per flush. Both stay zero while every thread owns its tx queues.
	TxContended  uint64
	TxLockCycles sim.Time

	// CtEvictions counts connections this thread's conntrack commits
	// displaced under pressure (early-dropped embryonic or LRU-evicted);
	// stays zero until a zone limit ladder engages.
	CtEvictions uint64

	// Non-empty rx batches and the packets in them; BatchMean reads both.
	batches, batchPkts uint64
	upcall             sim.Histogram // upcall handling latency (virtual ns)
	tracer             *Tracer       // optional packet-lifecycle ring
}

// Add charges d virtual cycles to a stage. Callers invoke it alongside the
// sim.CPU charge the cost belongs to; Add itself never touches the clock.
func (s *Stats) Add(st Stage, d sim.Time) { s.Cycles[st] += d }

// AddIteration counts one poll-loop pass.
func (s *Stats) AddIteration() { s.Iterations++ }

// AddBatch records one non-empty receive batch of n packets. Packets itself
// is counted where packets are processed, so injected (Execute) packets are
// counted even though they skip the rx path.
func (s *Stats) AddBatch(n int) {
	s.batches++
	s.batchPkts += uint64(n)
}

// AddUpcall counts one slow-path miss and its handling latency.
func (s *Stats) AddUpcall(lat sim.Time) {
	s.Upcalls++
	s.upcall.Record(lat)
}

// BatchMean returns the mean packets per non-empty batch.
func (s *Stats) BatchMean() float64 {
	if s.batches == 0 {
		return 0
	}
	return float64(s.batchPkts) / float64(s.batches)
}

// UpcallLatency summarizes upcall handling latency (P50/P90/P99).
func (s *Stats) UpcallLatency() sim.Summary { return s.upcall.Summarize() }

// UpcallCount returns the number of latency samples recorded.
func (s *Stats) UpcallCount() int { return s.upcall.Count() }

// BusyCycles sums every stage except the idle spin.
func (s *Stats) BusyCycles() sim.Time {
	var t sim.Time
	for st := StageRx; st < StageIdle; st++ {
		t += s.Cycles[st]
	}
	return t
}

// TotalCycles sums every stage including idle.
func (s *Stats) TotalCycles() sim.Time { return s.BusyCycles() + s.Cycles[StageIdle] }

// CyclesPerPacket returns a stage's cost amortized over processed packets.
func (s *Stats) CyclesPerPacket(st Stage) float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.Cycles[st]) / float64(s.Packets)
}

// EnableTrace arms packet-lifecycle tracing with a ring of n records;
// n <= 0 disables it.
func (s *Stats) EnableTrace(n int) {
	if n <= 0 {
		s.tracer = nil
		return
	}
	s.tracer = NewTracer(n)
}

// Tracer returns the trace ring, or nil when tracing is off.
func (s *Stats) Tracer() *Tracer { return s.tracer }

// Trace returns the captured lifecycles, oldest first (nil when off).
func (s *Stats) Trace() []TraceRecord {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Records()
}

// ThreadStats names one thread's counter block for reporting: the dpif
// providers return one per PMD (netdev) or one for the softirq context
// (netlink/ebpf).
type ThreadStats struct {
	Name string
	*Stats
}
