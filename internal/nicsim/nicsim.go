// Package nicsim models the physical NICs of the paper's testbeds: Intel
// X540 10 GbE (Section 5.1) and Mellanox ConnectX-6 25 GbE (Section 5.2).
//
// A NIC has multiple receive queues fed by RSS hashing or hardware ntuple
// steering rules (ethtool --config-ntuple, Figure 6b), bounded descriptor
// rings whose overflow is packet loss, per-queue interrupt signalling for
// interrupt-driven consumers, an XDP hook executed at the driver level, and
// hardware offloads (checksum, TSO) that the AF_XDP path conspicuously
// lacks (Table 2's O5, Section 5.5).
//
// The NIC is passive on the receive side: consumers (the kernel stack, a
// PMD thread, a DPDK driver) poll queues or arm interrupts. The transmit
// side paces frames at line rate and hands them to the attached wire.
package nicsim

import (
	"fmt"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/ebpf"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
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

// SteeringRule is one hardware ntuple flow-steering rule (Figure 6b):
// packets matching the 5-tuple constraints go to Queue.
type SteeringRule struct {
	Proto   hdr.IPProto // 0 matches any
	DstPort uint16      // 0 matches any
	Queue   int
}

// MaxSteeringRules bounds the ntuple rule memory, as real filter tables do
// (ethtool -u reports the size); appends past it are errors, not silent
// growth.
const MaxSteeringRules = 1024

// ntupleKey indexes a fully-specified steering rule for O(1) dispatch.
type ntupleKey struct {
	proto hdr.IPProto
	port  uint16
}

// steeringEntry is an installed rule plus its insertion sequence, which
// preserves evaluate-in-insertion-order semantics across the exact index
// and the wildcard list.
type steeringEntry struct {
	rule SteeringRule
	seq  int
}

// Queue is one hardware receive queue: the shared packet FIFO behind the
// NIC's arrival policy (Receive drops on ring overflow and raises a
// moderated interrupt).
type Queue struct {
	packet.FIFO
	ID int

	depth    int
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
	// receive path when a consumer calls DriverReceive.
	Hook *xdp.Hook

	eng      *sim.Engine
	queues   []*Queue
	rssBasis uint32
	// ntupleExact indexes fully-specified (proto, port) rules by tuple
	// hash — O(1) per packet however many rules are installed. Rules with
	// a wildcard field stay in ntupleWild, scanned in insertion order;
	// ntupleSeq numbers installs so first-match semantics hold across
	// both structures.
	ntupleExact map[ntupleKey]steeringEntry
	ntupleWild  []steeringEntry
	ntupleSeq   int
	// rssTable is the RSS indirection table (ethtool -X): the hash
	// selects a slot, the slot names the queue. nil keeps the identity
	// spread hash%queues — provably the same mapping as a table with
	// table[i] = i, so configuring nothing changes nothing.
	rssTable []int

	// wire receives transmitted packets (after serialization delay);
	// wireArg is the same callback in ScheduleArg form, bound once so
	// per-frame delivery scheduling does not allocate a closure.
	wire    func(*packet.Packet)
	wireArg func(any)
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
	RingSize int
	LinkRate int64
	Offloads Offloads
	// AttachModel selects the Figure 6 XDP attachment style; the zero
	// value is the Intel all-queues model.
	AttachModel xdp.AttachModel
}

// New builds a NIC on the engine.
func New(eng *sim.Engine, cfg Config) *NIC {
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingDepth
	}
	if cfg.LinkRate == 0 {
		cfg.LinkRate = costmodel.LinkRate10G
	}
	n := &NIC{
		Name:     cfg.Name,
		Ifindex:  cfg.Ifindex,
		LinkRate: cfg.LinkRate,
		Offloads: cfg.Offloads,
		Hook:     xdp.NewHook(cfg.AttachModel, xdp.ModeDriver),
		eng:      eng,
		rssBasis: uint32(cfg.Ifindex)*0x9e37 + 0x79b9,
	}
	for i := 0; i < cfg.Queues; i++ {
		n.queues = append(n.queues, &Queue{ID: i, depth: cfg.RingSize})
	}
	return n
}

// NumQueues returns the receive queue count.
func (n *NIC) NumQueues() int { return len(n.queues) }

// Queue returns queue i.
func (n *NIC) Queue(i int) *Queue { return n.queues[i] }

// AddSteeringRule installs a hardware ntuple rule; rules are evaluated in
// insertion order before RSS. A rule whose match tuple duplicates an
// installed rule is rejected (hardware filter slots hold one rule per
// tuple), as is a rule past the table bound or targeting a queue the NIC
// does not have.
func (n *NIC) AddSteeringRule(r SteeringRule) error {
	if r.Queue < 0 || r.Queue >= len(n.queues) {
		return fmt.Errorf("nicsim: steering rule targets queue %d of %d", r.Queue, len(n.queues))
	}
	if n.steeringRules() >= MaxSteeringRules {
		return fmt.Errorf("nicsim: steering rule table full (%d rules)", MaxSteeringRules)
	}
	if _, ok := n.findSteeringRule(r.Proto, r.DstPort); ok {
		return fmt.Errorf("nicsim: duplicate steering rule for proto=%d dst-port=%d", r.Proto, r.DstPort)
	}
	e := steeringEntry{rule: r, seq: n.ntupleSeq}
	n.ntupleSeq++
	if r.Proto != 0 && r.DstPort != 0 {
		if n.ntupleExact == nil {
			n.ntupleExact = make(map[ntupleKey]steeringEntry)
		}
		n.ntupleExact[ntupleKey{r.Proto, r.DstPort}] = e
	} else {
		n.ntupleWild = append(n.ntupleWild, e)
	}
	return nil
}

// RemoveSteeringRule deletes the installed rule with the given match tuple
// (the ethtool --config-ntuple delete analog); removal is by match, so the
// Queue field is ignored. Removing a rule that is not installed is an
// error.
func (n *NIC) RemoveSteeringRule(proto hdr.IPProto, dstPort uint16) error {
	if proto != 0 && dstPort != 0 {
		if _, ok := n.ntupleExact[ntupleKey{proto, dstPort}]; !ok {
			return fmt.Errorf("nicsim: no steering rule for proto=%d dst-port=%d", proto, dstPort)
		}
		delete(n.ntupleExact, ntupleKey{proto, dstPort})
		return nil
	}
	for i, e := range n.ntupleWild {
		if e.rule.Proto == proto && e.rule.DstPort == dstPort {
			n.ntupleWild = append(n.ntupleWild[:i], n.ntupleWild[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("nicsim: no steering rule for proto=%d dst-port=%d", proto, dstPort)
}

// steeringRules counts installed ntuple rules.
func (n *NIC) steeringRules() int { return len(n.ntupleExact) + len(n.ntupleWild) }

// findSteeringRule locates an installed rule by its exact match tuple.
func (n *NIC) findSteeringRule(proto hdr.IPProto, dstPort uint16) (SteeringRule, bool) {
	if proto != 0 && dstPort != 0 {
		if e, ok := n.ntupleExact[ntupleKey{proto, dstPort}]; ok {
			return e.rule, true
		}
		return SteeringRule{}, false
	}
	for _, e := range n.ntupleWild {
		if e.rule.Proto == proto && e.rule.DstPort == dstPort {
			return e.rule, true
		}
	}
	return SteeringRule{}, false
}

// ConnectWire attaches the function that receives transmitted packets (the
// other end of the cable, a switch port, or a test sink).
func (n *NIC) ConnectWire(fn func(*packet.Packet)) {
	n.wire = fn
	n.wireArg = func(a any) { fn(a.(*packet.Packet)) }
}

// classify picks the receive queue for a packet: ntuple rules first, then
// RSS on the 5-tuple. Hardware does this work, so no CPU cost is charged;
// the RSS hash is stored in the packet metadata when the NIC supports
// delivering it.
func (n *NIC) classify(p *packet.Packet) *Queue {
	if len(n.queues) == 1 && !n.Offloads.RSSHashDeliver {
		// Every steering rule, indirection slot and hash names the one
		// queue, and nobody is owed the hash.
		return n.queues[0]
	}
	var key flow.Key
	flow.ExtractInto(p, &key)
	if n.steeringRules() > 0 {
		f := key.Unpack()
		// The fully-specified rule, if any, in one map probe; then the
		// wildcard list in insertion order, stopping once no wildcard rule
		// can predate the exact match. First match (lowest sequence) wins,
		// exactly as the linear scan over a single list did.
		bestSeq := -1
		bestQueue := 0
		if e, ok := n.ntupleExact[ntupleKey{f.IPProto, f.TPDst}]; ok {
			bestSeq, bestQueue = e.seq, e.rule.Queue
		}
		for _, e := range n.ntupleWild {
			if bestSeq >= 0 && e.seq > bestSeq {
				break
			}
			if e.rule.Proto != 0 && e.rule.Proto != f.IPProto {
				continue
			}
			if e.rule.DstPort != 0 && e.rule.DstPort != f.TPDst {
				continue
			}
			bestSeq, bestQueue = e.seq, e.rule.Queue
			break
		}
		if bestSeq >= 0 {
			return n.queues[bestQueue]
		}
	}
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
// dropping on overflow, and raise the queue's interrupt if armed.
func (n *NIC) Receive(p *packet.Packet) bool {
	if n.Offloads.RxCsum {
		p.Offloads |= packet.CsumVerified
	}
	q := n.classify(p)
	if q.Len() >= q.depth {
		q.RxDrops++
		p.Release()
		return false
	}
	q.Append(p)
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

// DriverVerdicts receives each packet the XDP stage is finished with,
// according to its verdict. A nil callback means the bed has no consumer
// for that verdict and the packet is released.
type DriverVerdicts struct {
	// Pass receives packets bound for the host network stack: XDP_PASS, or
	// no program attached to the queue.
	Pass func(p *packet.Packet)
	// ToXsk receives packets redirected into an AF_XDP socket, with the
	// xskmap value (socket id).
	ToXsk func(sock uint32, p *packet.Packet)
	// ToDev receives packets redirected to another device (devmap
	// ifindex target).
	ToDev func(ifindex uint32, p *packet.Packet)
	// Tx transmits the (possibly rewritten) packet back out; nil sends it
	// out this NIC.
	Tx func(p *packet.Packet)
}

// DriverReceive is the driver's XDP stage for one packet taken from queue
// q, run on behalf of the softirq-context consumer: it charges the driver
// overhead plus the program's cost to cpu and hands the packet to the
// verdict's callback. Every path ends the packet's life here or passes it
// on: a drop, an abort, a faulting program and a redirect with no target
// all release it.
func (n *NIC) DriverReceive(cpu *sim.CPU, q int, p *packet.Packet, v *DriverVerdicts) {
	cpu.Consume(sim.Softirq, costmodel.XDPDriverOverhead)
	if !n.Hook.HasProgram() {
		deliver(v.Pass, p)
		return
	}
	res, cost, err := n.Hook.Run(q, p.Data, n.Ifindex)
	cpu.Consume(sim.Softirq, cost)
	if err != nil {
		p.Release() // a faulting program drops the packet (XDP_ABORTED)
		return
	}
	switch res.Action {
	case ebpf.XDPPass:
		deliver(v.Pass, p)
	case ebpf.XDPTx:
		cpu.Consume(sim.Softirq, costmodel.XDPTxForward)
		if v.Tx != nil {
			v.Tx(p)
		} else {
			n.Transmit(p)
		}
	case ebpf.XDPRedirect:
		m := res.RedirectMap
		if m == nil { // XDP_REDIRECT returned without a redirect_map call
			p.Release()
			return
		}
		tgt, ok := m.Target(res.RedirectIndex)
		switch {
		case !ok:
			p.Release()
		case m.Type() == ebpf.MapTypeXskMap && v.ToXsk != nil:
			v.ToXsk(tgt, p)
		case m.Type() == ebpf.MapTypeDevMap && v.ToDev != nil:
			cpu.Consume(sim.Softirq, costmodel.XDPRedirectVeth)
			v.ToDev(tgt, p)
		default:
			p.Release()
		}
	default: // XDP_DROP / XDP_ABORTED
		p.Release()
	}
}

// deliver hands p to fn, or releases it when the verdict has no consumer.
func deliver(fn func(*packet.Packet), p *packet.Packet) {
	if fn != nil {
		fn(p)
	} else {
		p.Release()
	}
}

// Transmit serializes the packet onto the wire at line rate, applying
// transmit-side offloads. TSO packets are split into MSS-sized frames here
// when the hardware supports it; callers without TSO hardware must segment
// in software before calling (and pay that cost themselves). The packet
// arrives at the wire peer after serialization plus propagation delay.
func (n *NIC) Transmit(p *packet.Packet) {
	if p.Offloads&packet.CsumPartial != 0 && n.Offloads.TxCsum {
		// Hardware fills the checksum: free for the CPU.
		p.Offloads &^= packet.CsumPartial
		p.Offloads |= packet.CsumVerified
	}
	if p.SegSize > 0 && n.Offloads.TSO && len(p.Data) > p.SegSize {
		for _, seg := range segment(p) {
			n.transmitFrame(seg)
		}
		return
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
	n.eng.ScheduleArgAt(n.txFreeAt+costmodel.WireAndNIC, n.wireArg, p)
}

// segment splits a TSO packet into SegSize-sized frames. Header bytes
// through the end of the transport header are replicated onto each segment;
// the split frames inherit verified-checksum state because the hardware
// computes per-segment checksums as part of TSO.
func segment(p *packet.Packet) []*packet.Packet {
	hdrLen := 54 // eth + ipv4 + minimal tcp, when offsets are unknown
	if p.L4Offset > 0 && p.L4Offset+hdr.TCPMinSize <= len(p.Data) {
		dataOff := int(p.Data[p.L4Offset+12]>>4) * 4
		if dataOff < hdr.TCPMinSize {
			dataOff = hdr.TCPMinSize
		}
		hdrLen = p.L4Offset + dataOff
	}
	if hdrLen > len(p.Data) {
		hdrLen = len(p.Data)
	}
	payload := p.Data[hdrLen:]
	var out []*packet.Packet
	for off := 0; off < len(payload); off += p.SegSize {
		end := off + p.SegSize
		if end > len(payload) {
			end = len(payload)
		}
		data := make([]byte, hdrLen+end-off)
		copy(data, p.Data[:hdrLen])
		copy(data[hdrLen:], payload[off:end])
		seg := packet.New(data)
		seg.Metadata = p.Metadata
		seg.SegSize = 0
		seg.Offloads &^= packet.CsumPartial | packet.TSO
		seg.Offloads |= packet.CsumVerified
		out = append(out, seg)
	}
	if len(out) == 0 {
		out = append(out, p)
	}
	return out
}

// RxDropsTotal sums drops across queues.
func (n *NIC) RxDropsTotal() uint64 {
	var d uint64
	for _, q := range n.queues {
		d += q.RxDrops
	}
	return d
}

// RxPacketsTotal sums received packets across queues.
func (n *NIC) RxPacketsTotal() uint64 {
	var d uint64
	for _, q := range n.queues {
		d += q.RxPackets
	}
	return d
}
