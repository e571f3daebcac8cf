package core

// The four virtual-device ports as they stood before core.LinkPort replaced
// them, kept verbatim (names prefixed ref, the device structs they wrapped
// moved here with them) as the reference TestLinkPortMatchesReference drives
// LinkPort against.

import (
	"fmt"
	"strings"
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/vdev"
)

// Tap is the kernel tap device of Section 3.3 path A: userspace writes
// packets with a sendto() system call into ToKernel; the kernel stack (or a
// VM via QEMU) reads from it, and injects packets back through FromKernel.
type refTap struct {
	Name string
	// ToKernel carries packets from OVS userspace into the kernel/VM.
	ToKernel *vdev.Queue
	// FromKernel carries packets from the kernel/VM to OVS userspace.
	FromKernel *vdev.Queue
}

// NewTap builds a tap device.
func newRefTap(name string) *refTap {
	return &refTap{
		Name:       name,
		ToKernel:   vdev.NewQueue(name+":to-kernel", 0),
		FromKernel: vdev.NewQueue(name+":from-kernel", 0),
	}
}

// VhostUser is the shared-memory virtio ring pair of Section 3.3 path B:
// OVS userspace and the VM exchange packets without any kernel crossing.
type refVhostUser struct {
	Name string
	// ToGuest is the ring OVS produces into (guest rx).
	ToGuest *vdev.Queue
	// FromGuest is the ring the guest produces into (guest tx).
	FromGuest *vdev.Queue
}

// NewVhostUser builds a vhostuser device.
func newRefVhostUser(name string) *refVhostUser {
	return &refVhostUser{
		Name:      name,
		ToGuest:   vdev.NewQueue(name+":to-guest", 0),
		FromGuest: vdev.NewQueue(name+":from-guest", 0),
	}
}

// VethPair is the namespace-crossing device of Section 3.4: what one end
// sends, the other end receives, with no data copy.
type refVethPair struct {
	Name string
	// AtoB carries host-side sends to the container; BtoA the reverse.
	AtoB *vdev.Queue
	BtoA *vdev.Queue
}

// NewVethPair builds a veth pair.
func newRefVethPair(name string) *refVethPair {
	return &refVethPair{
		Name: name,
		AtoB: vdev.NewQueue(name+":a-to-b", 0),
		BtoA: vdev.NewQueue(name+":b-to-a", 0),
	}
}

// SendA transmits from the A (host) end.
func (v *refVethPair) SendA(p *packet.Packet) bool { return v.AtoB.Push(p) }

// SendB transmits from the B (container) end.
func (v *refVethPair) SendB(p *packet.Packet) bool { return v.BtoA.Push(p) }

// --- vhostuser port ---------------------------------------------------------------

// refVhostPort is the Section 3.3 path B device: OVS accesses the VM's virtio
// rings directly through shared memory, with no kernel crossing and no
// QEMU relay.
type refVhostPort struct {
	id  uint32
	dev *refVhostUser
}

// newRefVhostPort wraps a vhostuser device.
func newRefVhostPort(id uint32, dev *refVhostUser) *refVhostPort {
	return &refVhostPort{id: id, dev: dev}
}

// ID implements Port.
func (p *refVhostPort) ID() uint32 { return p.id }

// Name implements Port.
func (p *refVhostPort) Name() string { return p.dev.Name }

// NumRxQueues implements Port.
func (p *refVhostPort) NumRxQueues() int { return 1 }

// NumTxQueues implements Port: a single virtio ring pair.
func (p *refVhostPort) NumTxQueues() int { return 1 }

// Rx implements Port: dequeue from the guest's tx ring, paying the ring op
// and the copy out of guest memory.
func (p *refVhostPort) Rx(cpu *sim.CPU, _, max int) []*packet.Packet {
	pkts := p.dev.FromGuest.Pop(max)
	for _, pkt := range pkts {
		pkt.InPort = p.id
		// Local guest traffic is trusted: virtio marks checksums as
		// already validated (or partial for offload negotiation).
		if pkt.Offloads&packet.CsumPartial == 0 {
			pkt.Offloads |= packet.CsumVerified
		}
		cpu.Consume(sim.User, costmodel.VhostRingOp+costmodel.CopyCost(len(pkt.Data)))
	}
	return pkts
}

// Tx implements Port: enqueue onto the guest's rx ring.
func (p *refVhostPort) Tx(cpu *sim.CPU, _ int, pkt *packet.Packet) {
	cpu.Consume(sim.User, costmodel.VhostRingOp+costmodel.CopyCost(len(pkt.Data)))
	p.dev.ToGuest.Push(pkt)
}

// Flush implements Port.
func (p *refVhostPort) Flush(*sim.CPU, int) {}

// Arm implements Port.
func (p *refVhostPort) Arm(_ int, fn func()) {
	p.dev.FromGuest.SetWakeup(fn)
	p.dev.FromGuest.ArmWakeup()
}

// --- tap port ---------------------------------------------------------------------

// refTapPort is the Section 3.3 path A device: every packet OVS sends to the
// VM/kernel costs a system call ("we measured the cost of this system call
// as 2 µs on average"; with OVS's batching the amortized per-packet
// penalty is TapPerPacketAmortized).
type refTapPort struct {
	id  uint32
	dev *refTap
}

// newRefTapPort wraps a tap device.
func newRefTapPort(id uint32, dev *refTap) *refTapPort {
	return &refTapPort{id: id, dev: dev}
}

// ID implements Port.
func (p *refTapPort) ID() uint32 { return p.id }

// Name implements Port.
func (p *refTapPort) Name() string { return p.dev.Name }

// NumRxQueues implements Port.
func (p *refTapPort) NumRxQueues() int { return 1 }

// NumTxQueues implements Port: a single-queue tap.
func (p *refTapPort) NumTxQueues() int { return 1 }

// Rx implements Port: read() from the tap, a syscall per batch plus copies.
func (p *refTapPort) Rx(cpu *sim.CPU, _, max int) []*packet.Packet {
	pkts := p.dev.FromKernel.Pop(max)
	if len(pkts) == 0 {
		return nil
	}
	cpu.Consume(sim.System, costmodel.SyscallBase)
	for _, pkt := range pkts {
		pkt.InPort = p.id
		if pkt.Offloads&packet.CsumPartial == 0 {
			pkt.Offloads |= packet.CsumVerified
		}
		cpu.Consume(sim.System, costmodel.CopyCost(len(pkt.Data)))
	}
	return pkts
}

// Tx implements Port.
func (p *refTapPort) Tx(cpu *sim.CPU, _ int, pkt *packet.Packet) {
	cpu.Consume(sim.System, costmodel.TapPerPacketAmortized+costmodel.CopyCost(len(pkt.Data)))
	p.dev.ToKernel.Push(pkt)
}

// Flush implements Port.
func (p *refTapPort) Flush(*sim.CPU, int) {}

// Arm implements Port.
func (p *refTapPort) Arm(_ int, fn func()) {
	p.dev.FromKernel.SetWakeup(fn)
	p.dev.FromKernel.ArmWakeup()
}

// --- veth port (AF_XDP generic mode on a veth) --------------------------------------

// refVethPort carries container traffic through OVS userspace (Figure 5 path
// A): an AF_XDP socket in generic mode on the host end of a veth pair.
// Generic mode means an extra skb copy on both directions, the reason the
// Figure 8(c) veth bars trail the in-kernel numbers.
type refVethPort struct {
	id      uint32
	pair    *refVethPair
	softirq *sim.CPU
	eng     *sim.Engine
}

// newRefVethPort wraps the host end of a veth pair; softirq is the kernel CPU
// charged for the generic-XDP copies.
func newRefVethPort(id uint32, eng *sim.Engine, pair *refVethPair, softirq *sim.CPU) *refVethPort {
	return &refVethPort{id: id, pair: pair, softirq: softirq, eng: eng}
}

// ID implements Port.
func (p *refVethPort) ID() uint32 { return p.id }

// Name implements Port.
func (p *refVethPort) Name() string { return p.pair.Name }

// NumRxQueues implements Port.
func (p *refVethPort) NumRxQueues() int { return 1 }

// NumTxQueues implements Port: one generic-mode XSK tx ring.
func (p *refVethPort) NumTxQueues() int { return 1 }

// Rx implements Port.
func (p *refVethPort) Rx(cpu *sim.CPU, _, max int) []*packet.Packet {
	pkts := p.pair.BtoA.Pop(max)
	for _, pkt := range pkts {
		pkt.InPort = p.id
		cpu.Consume(sim.User, costmodel.AFXDPRxDescriptor)
	}
	return pkts
}

// Tx implements Port.
// Tx implements Port. Generic-mode XSK pays skb allocation, linearization,
// and cold copies on both the receive and transmit crossings ("a fallback
// mode that works universally at the cost of an extra packet copy"); all of
// that serializes on the veth's softirq CPU, which gates delivery — the
// reason Figure 8(c)'s AF_XDP-veth bars top out around 8 Gbps even with
// TSO.
func (p *refVethPort) Tx(cpu *sim.CPU, _ int, pkt *packet.Packet) {
	cpu.Consume(sim.User, costmodel.AFXDPTxDescriptor)
	cost := costmodel.SkbAlloc + 4*costmodel.CopyCostCold(len(pkt.Data)) + costmodel.VethCrossing
	pair := p.pair
	p.softirq.Exec(sim.Softirq, cost, func() { pair.SendA(pkt) })
}

// Flush implements Port.
func (p *refVethPort) Flush(cpu *sim.CPU, _ int) {
	cpu.Consume(sim.System, costmodel.AFXDPTxKickSyscall)
}

// Arm implements Port.
func (p *refVethPort) Arm(_ int, fn func()) {
	p.pair.BtoA.SetWakeup(fn)
	p.pair.BtoA.ArmWakeup()
}

// --- AF_PACKET container port (was experiments.refAFPacketPort) -----------------

// refAFPacketPort reaches a container through AF_PACKET injection: every
// packet pays a user/kernel crossing plus copies in each direction.
type refAFPacketPort struct {
	id   uint32
	veth *refVethPair
	eng  *sim.Engine
}

func (p *refAFPacketPort) ID() uint32       { return p.id }
func (p *refAFPacketPort) Name() string     { return "dpdk-afpacket" }
func (p *refAFPacketPort) NumRxQueues() int { return 1 }
func (p *refAFPacketPort) NumTxQueues() int { return 1 }

func (p *refAFPacketPort) Rx(cpu *sim.CPU, _, max int) []*packet.Packet {
	pkts := p.veth.BtoA.Pop(max)
	for _, pkt := range pkts {
		pkt.InPort = p.id
		// Under load the AF_PACKET ring amortizes the crossing across a
		// batch; latency tests see the full per-wakeup cost instead.
		cpu.Consume(sim.System, costmodel.DPDKContainerCrossing/16+costmodel.CopyCost(len(pkt.Data)))
	}
	return pkts
}

func (p *refAFPacketPort) Tx(cpu *sim.CPU, _ int, pkt *packet.Packet) {
	cpu.Consume(sim.System, costmodel.DPDKContainerCrossing/16+costmodel.CopyCost(len(pkt.Data)))
	p.veth.SendA(pkt)
}

func (p *refAFPacketPort) Flush(*sim.CPU, int) {}

func (p *refAFPacketPort) Arm(_ int, fn func()) {
	p.veth.BtoA.SetWakeup(fn)
	p.veth.BtoA.ArmWakeup()
}

// refPortCaps is PortCaps as it stood: a type switch over the port types.
func refPortCaps(p Port) Caps {
	switch p.(type) {
	case *AFXDPPort, *refVethPort:
		// AF_XDP cannot reach the NIC's offload engines (Section 3.2
		// O5: "AF_XDP does not yet [support offloads]").
		return Caps{}
	default:
		// DPDK programs hardware offloads; vhost/tap negotiate
		// virtio offloads with the peer.
		return Caps{TxCsum: true, TSO: true}
	}
}

// --- the differential --------------------------------------------------------------

// linkSide is one port under test on its own engine: the polling CPU, the
// softirq CPU a veth crosses on, and the two rings behind the port.
type linkSide struct {
	eng          *sim.Engine
	pmd, softirq *sim.CPU
	port         Port
	from, to     *vdev.Queue
}

func newLinkSide(seed uint64) linkSide {
	eng := sim.NewEngine(seed)
	return linkSide{eng: eng, pmd: eng.NewCPU("pmd"), softirq: eng.NewCPU("softirq")}
}

func refLinkSide(kind string, seed uint64) linkSide {
	s := newLinkSide(seed)
	switch kind {
	case "tap":
		dev := newRefTap("dev")
		s.port, s.from, s.to = newRefTapPort(3, dev), dev.FromKernel, dev.ToKernel
	case "vhostuser":
		dev := newRefVhostUser("dev")
		s.port, s.from, s.to = newRefVhostPort(3, dev), dev.FromGuest, dev.ToGuest
	case "veth":
		pair := newRefVethPair("dev")
		s.port, s.from, s.to = newRefVethPort(3, s.eng, pair, s.softirq), pair.BtoA, pair.AtoB
	case "afpacket":
		pair := newRefVethPair("dev")
		s.port, s.from, s.to = &refAFPacketPort{id: 3, veth: pair, eng: s.eng}, pair.BtoA, pair.AtoB
	}
	return s
}

func newKindLinkSide(kind string, seed uint64) linkSide {
	s := newLinkSide(seed)
	link := vdev.NewLink("dev")
	var softirq *sim.CPU
	if kind == "veth" {
		softirq = s.softirq
	}
	s.port, s.from, s.to = NewLinkPort(3, kind, link, softirq), link.FromPeer, link.ToPeer
	return s
}

// runLinkScript drives the side through the operation sequence seed selects
// and returns what could be observed after every step: the packets each Rx
// and each peer-side drain returned (sequence number, length, offload flags,
// InPort, in order), both CPUs' busy time per category and FreeAt, both
// rings' occupancy and counters, the wakeups delivered and the clock.
func runLinkScript(s linkSide, seed uint64) []string {
	rng := sim.NewRand(seed)
	sizes := []int{60, 64, 128, 590, 1514, 9000, 65000}
	frame := make([]byte, sizes[len(sizes)-1]) // no port writes a frame, so all packets share one
	wakes, next := 0, uint32(0)
	mkPacket := func() *packet.Packet {
		p := packet.New(frame[:sizes[rng.Intn(len(sizes))]])
		p.CtMark = next // the packet's sequence number
		next++
		// Every mix of CsumVerified and CsumPartial.
		p.Offloads = packet.OffloadFlags(rng.Intn(4))
		return p
	}
	burst := func() int {
		switch rng.Intn(16) {
		case 0:
			return 0
		case 1:
			return vdev.DefaultQueueDepth + rng.Intn(80) // over the ring depth
		}
		return 1 + rng.Intn(40)
	}
	show := func(pkts []*packet.Packet) string {
		var out strings.Builder
		for _, p := range pkts {
			fmt.Fprintf(&out, " %d/%d/%d/%d", p.CtMark, len(p.Data), p.Offloads, p.InPort)
		}
		return out.String()
	}
	busy := func(c *sim.CPU) string {
		return fmt.Sprintf("%d+%d+%d+%d@%d", c.Busy(sim.User), c.Busy(sim.System), c.Busy(sim.Softirq), c.Busy(sim.Guest), c.FreeAt())
	}
	ring := func(q *vdev.Queue) string {
		return fmt.Sprintf("%d/%d/%d", q.Len(), q.Enqueued, q.Dropped)
	}
	var trace []string
	for step := 0; step < 24; step++ {
		var did string
		switch op := rng.Intn(8); op {
		case 0: // the peer sends a burst
			n := burst()
			for i := 0; i < n; i++ {
				s.from.Push(mkPacket())
			}
			did = fmt.Sprintf("peer sends %d", n)
		case 1, 2: // the PMD polls
			max := []int{0, 1, 32, 64}[rng.Intn(4)]
			did = fmt.Sprintf("rx %d:%s", max, show(s.port.Rx(s.pmd, 0, max)))
		case 3: // the PMD transmits a burst
			n := burst()
			for i := 0; i < n; i++ {
				s.port.Tx(s.pmd, 0, mkPacket())
			}
			did = fmt.Sprintf("tx %d", n)
		case 4:
			s.port.Flush(s.pmd, 0)
			did = "flush"
		case 5: // arm, or re-arm over the previous callback
			s.port.Arm(0, func() { wakes++ })
			did = "arm"
		case 6: // time passes: deferred deliveries land
			s.eng.RunUntil(s.eng.Now() + sim.Time(rng.Intn(200_000)))
			did = "run"
		case 7: // the peer drains
			did = "peer drains:" + show(s.to.Pop(1+rng.Intn(2*vdev.DefaultQueueDepth)))
		}
		trace = append(trace, fmt.Sprintf("%s | now=%d pmd=%s softirq=%s from=%s to=%s wakes=%d",
			did, s.eng.Now(), busy(s.pmd), busy(s.softirq), ring(s.from), ring(s.to), wakes))
	}
	s.eng.Run()
	trace = append(trace, fmt.Sprintf("end | now=%d pmd=%s softirq=%s from=%s:%s to=%s:%s wakes=%d",
		s.eng.Now(), busy(s.pmd), busy(s.softirq),
		ring(s.from), show(s.from.Pop(2*vdev.DefaultQueueDepth)),
		ring(s.to), show(s.to.Pop(2*vdev.DefaultQueueDepth)), wakes))
	return trace
}

// TestLinkPortMatchesReference: for each of the four kinds, LinkPort and the
// port type it replaced, each on a fresh engine, are driven through 1,000
// seeded operation sequences and must be indistinguishable at every step.
// Name() is not compared: the AF_PACKET port called itself "dpdk-afpacket",
// a LinkPort has its link's name.
func TestLinkPortMatchesReference(t *testing.T) {
	for _, kind := range []string{"tap", "vhostuser", "veth", "afpacket"} {
		t.Run(kind, func(t *testing.T) {
			if got, want := PortCaps(newKindLinkSide(kind, 1).port), refPortCaps(refLinkSide(kind, 1).port); got != want {
				t.Fatalf("caps = %+v, reference %+v", got, want)
			}
			for seed := uint64(1); seed <= 1000; seed++ {
				want := runLinkScript(refLinkSide(kind, seed), seed)
				got := runLinkScript(newKindLinkSide(kind, seed), seed)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d:\n  LinkPort:  %s\n  reference: %s", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}
