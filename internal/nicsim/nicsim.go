// Package nicsim models the physical NICs of the paper's testbeds: Intel
// X540 10 GbE (Section 5.1) and Mellanox ConnectX-6 25 GbE (Section 5.2).
//
// A NIC has multiple receive queues fed by RSS hashing through an
// indirection table (ethtool -X), bounded descriptor rings whose overflow is
// packet loss, per-queue interrupt signalling for interrupt-driven
// consumers, an XDP hook executed at the driver level, and hardware
// offloads (checksum, TSO) that the AF_XDP path conspicuously lacks (Table
// 2's O5, Section 5.5).
//
// The NIC is passive on the receive side: consumers (the kernel stack, a
// PMD thread, a DPDK driver) poll queues or arm interrupts. The transmit
// side paces frames at line rate and hands them to the attached wire.
package nicsim

import (
	"fmt"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/xdp"
)

// DefaultRingDepth is the hardware descriptor ring depth per queue.
const DefaultRingDepth = 1024

// Offloads describes the hardware assists a NIC provides.
type Offloads struct {
	// RxCsum: the NIC validates L3/L4 checksums on receive and marks
	// packets CsumVerified.
	RxCsum bool
	// TxCsum: the NIC fills in checksums marked CsumPartial on transmit.
	TxCsum bool
	// TSO: the NIC segments oversized TCP packets on transmit.
	TSO bool
	// RSSHashDeliver: the NIC delivers its computed RSS hash to the
	// consumer (kernels get this via the descriptor; AF_XDP cannot
	// access it yet, Section 5.5).
	RSSHashDeliver bool
}

// Queue is one hardware receive queue: the shared packet FIFO behind the
// NIC's arrival policy (Receive drops on ring overflow and raises a
// moderated interrupt).
type Queue struct {
	packet.FIFO
	ID int

	irqFn    func()
	irqArmed bool

	// Stats.
	RxPackets uint64
	RxDrops   uint64
}

// SetWakeup installs the interrupt handler; arming is separate so NAPI
// consumers can disable interrupts while polling.
func (q *Queue) SetWakeup(fn func()) { q.irqFn = fn }

// ArmWakeup enables interrupt delivery for the next packet arrival.
func (q *Queue) ArmWakeup() { q.irqArmed = true }

// NIC is one simulated network interface.
type NIC struct {
	Name    string
	Ifindex uint32
	// LinkRate is the port speed in bits/s.
	LinkRate int64
	// Offloads are the hardware assists available.
	Offloads Offloads
	// Hook is the XDP attachment point, executed by the driver's
	// receive path when a consumer calls Hook.Receive.
	Hook *xdp.Hook

	eng      *sim.Engine
	queues   []*Queue
	rssBasis uint32
	// activeQueues counts the queues that have received a packet.
	activeQueues int
	// rssTable is the RSS indirection table (ethtool -X): the hash
	// selects a slot, the slot names the queue. nil keeps the identity
	// spread hash%queues — provably the same mapping as a table with
	// table[i] = i, so configuring nothing changes nothing.
	rssTable []int

	// wire delivers transmitted packets to the other end after the
	// serialization delay. Delivery times (txFreeAt + WireAndNIC) never
	// decrease, so the frames in flight are one FIFO.
	wire *sim.Deadlines[*packet.Packet]
	// txFreeAt paces the transmit side at line rate.
	txFreeAt sim.Time

	// Stats.
	TxPackets uint64
	TxBytes   uint64
	// LinkDownRx / LinkDownTx are the link-down drop classes of the frozen
	// benchmark's rx ledger (benchmark/run.go). Nothing takes a carrier
	// down, so they stay zero; they go when benchmark/ is next ported.
	LinkDownRx uint64
	LinkDownTx uint64
}

// Config parameterizes New.
type Config struct {
	Name     string
	Ifindex  uint32
	Queues   int
	LinkRate int64
	Offloads Offloads
}

// New builds a NIC on the engine.
func New(eng *sim.Engine, cfg Config) *NIC {
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	if cfg.LinkRate == 0 {
		cfg.LinkRate = costmodel.LinkRate10G
	}
	n := &NIC{
		Name:     cfg.Name,
		Ifindex:  cfg.Ifindex,
		LinkRate: cfg.LinkRate,
		Offloads: cfg.Offloads,
		Hook:     xdp.NewHook(xdp.ModeDriver),
		eng:      eng,
		rssBasis: uint32(cfg.Ifindex)*0x9e37 + 0x79b9,
	}
	for i := 0; i < cfg.Queues; i++ {
		n.queues = append(n.queues, &Queue{ID: i})
	}
	return n
}

// NumQueues returns the receive queue count.
func (n *NIC) NumQueues() int { return len(n.queues) }

// Queue returns queue i.
func (n *NIC) Queue(i int) *Queue { return n.queues[i] }

// ConnectWire attaches the function that receives transmitted packets (the
// other end of the cable, a switch port, or a test sink).
func (n *NIC) ConnectWire(fn func(*packet.Packet)) {
	// A fresh queue, so frames already in flight keep the sink they were
	// sent to.
	n.wire = sim.NewDeadlines(n.eng, fn)
}

// classify picks the receive queue for a packet by RSS on the 5-tuple.
// Hardware does this work, so no CPU cost is charged; the RSS hash is stored
// in the packet metadata when the NIC supports delivering it.
func (n *NIC) classify(p *packet.Packet) *Queue {
	if len(n.queues) == 1 && !n.Offloads.RSSHashDeliver {
		// Every indirection slot and hash names the one queue, and nobody
		// is owed the hash.
		return n.queues[0]
	}
	var key flow.Key
	flow.ExtractInto(p, &key)
	h := flow.RSSHash(&key)
	if n.Offloads.RSSHashDeliver {
		p.RSSHash = h
		p.HasRSSHash = true
	}
	if len(n.rssTable) > 0 {
		return n.queues[n.rssTable[h%uint32(len(n.rssTable))]]
	}
	return n.queues[h%uint32(len(n.queues))]
}

// SetRSSIndirection programs the RSS indirection table (the ethtool -X
// analog): the packet hash selects table[hash % len], which names the
// receive queue. Weighted tables skew traffic across queues — how the
// scaling experiments produce deterministic hot and cold queues. A nil or
// empty table restores the identity spread. Entries must name existing
// queues.
func (n *NIC) SetRSSIndirection(table []int) error {
	for _, q := range table {
		if q < 0 || q >= len(n.queues) {
			return fmt.Errorf("nicsim %s: indirection entry %d out of range (have %d queues)",
				n.Name, q, len(n.queues))
		}
	}
	n.rssTable = append([]int(nil), table...)
	return nil
}

// WeightedIndirection builds an indirection table spreading slots across
// queues proportionally to the given weights (one per queue). A queue with
// weight 0 receives no traffic. The table has one slot per weight unit, so
// small integer weights keep it compact and exact.
func WeightedIndirection(weights []int) []int {
	var table []int
	for q, w := range weights {
		for i := 0; i < w; i++ {
			table = append(table, q)
		}
	}
	return table
}

// Receive is the wire-side ingress: DMA the packet into its queue's ring,
// dropping on overflow, and raise the queue's interrupt if armed. A wire
// carries bytes, so whatever datapath state the frame left its sender with
// (recirculation, conntrack, tunnel, offload flags) is gone on arrival.
func (n *NIC) Receive(p *packet.Packet) bool {
	p.ResetMetadata()
	if n.Offloads.RxCsum {
		p.Offloads |= packet.CsumVerified
	}
	q := n.classify(p)
	if q.Len() >= DefaultRingDepth {
		q.RxDrops++
		p.Release()
		return false
	}
	q.Append(p)
	if q.RxPackets == 0 {
		n.activeQueues++
	}
	q.RxPackets++
	if q.irqArmed && q.irqFn != nil {
		q.irqArmed = false
		fn := q.irqFn
		// Interrupt moderation delay: adaptive coalescing makes this
		// jittery (half fixed, half exponential), which is where the
		// kernel path's latency tail in Figure 10 comes from.
		base := costmodel.InterruptLatencyMean / 2
		jitter := sim.Time(n.eng.Rand().Exp(float64(base)))
		n.eng.Schedule(base+jitter, fn)
	}
	return true
}

// Transmit serializes the packet onto the wire at line rate, applying
// transmit-side offloads. With TSO hardware a super-frame is split here by
// packet.(*Packet).Segment, the segmenter the datapath's software TSO also
// calls, at no CPU cost, and each segment leaves with its checksum filled;
// without it the frame leaves whole, so a caller without TSO hardware
// segments (and pays) before calling. The packet arrives at the wire peer
// after serialization plus propagation delay.
func (n *NIC) Transmit(p *packet.Packet) {
	if p.Offloads&packet.CsumPartial != 0 && n.Offloads.TxCsum {
		// Hardware fills the checksum: free for the CPU.
		p.Offloads &^= packet.CsumPartial
		p.Offloads |= packet.CsumVerified
	}
	if p.SegSize > 0 && n.Offloads.TSO {
		if segs := p.Segment(); segs != nil {
			for _, s := range segs {
				// TSO hardware checksums each segment it cuts.
				s.Offloads &^= packet.CsumPartial
				s.Offloads |= packet.CsumVerified
				n.transmitFrame(s)
			}
			p.Release()
			return
		}
	}
	n.transmitFrame(p)
}

func (n *NIC) transmitFrame(p *packet.Packet) {
	n.TxPackets++
	n.TxBytes += uint64(len(p.Data))
	ser := costmodel.TransmitTime(n.LinkRate, len(p.Data))
	start := n.txFreeAt
	if now := n.eng.Now(); start < now {
		start = now
	}
	n.txFreeAt = start + ser
	if n.wire == nil {
		p.Release()
		return
	}
	n.wire.Push(n.txFreeAt+costmodel.WireAndNIC, p)
}

// RxDropsTotal sums drops across queues.
func (n *NIC) RxDropsTotal() uint64 {
	var d uint64
	for _, q := range n.queues {
		d += q.RxDrops
	}
	return d
}

// ActiveQueues returns how many queues have received a packet.
func (n *NIC) ActiveQueues() int { return n.activeQueues }

// RxPacketsTotal sums received packets across queues.
func (n *NIC) RxPacketsTotal() uint64 {
	var d uint64
	for _, q := range n.queues {
		d += q.RxPackets
	}
	return d
}
