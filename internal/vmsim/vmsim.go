// Package vmsim models the virtual machines of Sections 3.3 and 5: a guest
// with vCPUs (accounted to the Guest category, as Table 4 does), a
// virtio-net frontend, and either of the two backends the paper compares:
//
//   - vhostuser (Figure 5 path B): the guest's rings are shared memory that
//     OVS userspace reads and writes directly, no kernel or QEMU hop.
//   - tap (Figure 5 path A): packets cross the kernel tap device and are
//     relayed by the QEMU process ("vhostuser packets do not traverse the
//     userspace QEMU process", Section 5.1 — tap packets do).
//
// The guest runs a pluggable packet handler; the default reflector swaps
// MAC addresses and transmits back, which is what the PVP loopback
// experiments need. The TCP experiments install their own handlers.
package vmsim

import (
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/vdev"
)

// Backend abstracts how the VM's virtio frontend reaches the host switch.
type Backend interface {
	// GuestRxQueue is the queue the guest consumes (host -> guest).
	GuestRxQueue() *vdev.Queue
	// GuestTransmit sends one packet from the guest toward the host,
	// charging backend-specific costs.
	GuestTransmit(p *packet.Packet)
}

// VhostUserBackend is shared-memory virtio: zero kernel involvement.
type VhostUserBackend struct {
	Dev *vdev.Link
}

// GuestRxQueue implements Backend.
func (b *VhostUserBackend) GuestRxQueue() *vdev.Queue { return b.Dev.ToPeer }

// GuestTransmit implements Backend.
func (b *VhostUserBackend) GuestTransmit(p *packet.Packet) { b.Dev.FromPeer.Push(p) }

// TapBackend relays packets between the tap device and the guest through
// the QEMU process, paying the extra hop on a host userspace CPU. With a
// distinct TxCPU the two directions relay concurrently (multiqueue
// virtio / vhost-net-style); with one CPU they serialize.
type TapBackend struct {
	Tap     *vdev.Link
	QemuCPU *sim.CPU
	TxCPU   *sim.CPU
	Eng     *sim.Engine

	guestRx *vdev.Queue
	started bool
}

// NewTapBackendMQ builds a tap backend with a relay CPU per direction
// (multiqueue virtio); passing one CPU twice serializes the two.
func NewTapBackendMQ(eng *sim.Engine, tap *vdev.Link, rxCPU, txCPU *sim.CPU) *TapBackend {
	b := &TapBackend{Tap: tap, QemuCPU: rxCPU, TxCPU: txCPU, Eng: eng,
		guestRx: vdev.NewQueue(tap.Name+":guest-rx", 0)}
	// QEMU relay: tap -> guest rx queue. QEMU reads the tap (syscall +
	// cold copy) and writes into the guest's virtio ring (another cold
	// copy) — the overhead Figure 8(b) blames for tap trailing
	// vhostuser.
	relay := &kernelsim.NAPIActor{
		Eng: eng, CPU: rxCPU,
		Src:      tap.ToPeer,
		Category: sim.User,
		Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
			for _, p := range pkts {
				cpu.Consume(sim.User, costmodel.QemuTapRelay+costmodel.SyscallBase+
					costmodel.QemuCopyCost(len(p.Data)))
				b.guestRx.Push(p)
			}
		},
	}
	relay.Start()
	return b
}

// GuestRxQueue implements Backend.
func (b *TapBackend) GuestRxQueue() *vdev.Queue { return b.guestRx }

// GuestTransmit implements Backend: QEMU writes the packet into the tap.
func (b *TapBackend) GuestTransmit(p *packet.Packet) {
	b.TxCPU.Consume(sim.User, costmodel.QemuTapRelay+costmodel.SyscallBase+
		costmodel.QemuCopyCost(len(p.Data)))
	b.Tap.FromPeer.Push(p)
}

// VM is one guest.
type VM struct {
	Name    string
	Eng     *sim.Engine
	CPU     *sim.CPU // the vCPU, accounted as Guest
	Backend Backend

	// OffloadsNegotiated: the virtio device negotiated checksum/TSO, so
	// guest transmissions carry CsumPartial/TSO flags instead of paying
	// software checksum in the guest (Figure 8's offload toggles).
	OffloadsNegotiated bool

	// FastReflector models a poll-mode guest application (testpmd-style
	// l2fwd, as the paper's PVP loopbacks run): per-packet virtio and
	// stack costs shrink to the poll-mode driver's share.
	FastReflector bool

	// OnPacket handles received packets; the default reflects them back
	// (PVP). The handler runs after guest-side receive costs are
	// charged.
	OnPacket func(vm *VM, p *packet.Packet)

	// Stats.
	RxPackets uint64
	TxPackets uint64
}

// Config parameterizes New.
type Config struct {
	Name               string
	Backend            Backend
	CPU                *sim.CPU // optional; created when nil
	OffloadsNegotiated bool
	FastReflector      bool
	OnPacket           func(vm *VM, p *packet.Packet)
}

// New builds and starts a VM.
func New(eng *sim.Engine, cfg Config) *VM {
	cpu := cfg.CPU
	if cpu == nil {
		cpu = eng.NewCPU("vcpu-" + cfg.Name)
	}
	vm := &VM{
		Name:               cfg.Name,
		Eng:                eng,
		CPU:                cpu,
		Backend:            cfg.Backend,
		OffloadsNegotiated: cfg.OffloadsNegotiated,
		FastReflector:      cfg.FastReflector,
		OnPacket:           cfg.OnPacket,
	}
	if vm.OnPacket == nil {
		vm.OnPacket = Reflect
	}
	actor := &kernelsim.NAPIActor{
		Eng: eng, CPU: cpu,
		Src:      cfg.Backend.GuestRxQueue(),
		Category: sim.Guest,
		Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
			for _, p := range pkts {
				rx := costmodel.VirtioGuestRx + costmodel.GuestStackPerPacket
				if vm.FastReflector {
					rx = costmodel.VirtioGuestRx / 2
				}
				cpu.Consume(sim.Guest, rx)
				vm.RxPackets++
				vm.OnPacket(vm, p)
			}
		},
	}
	actor.Start()
	return vm
}

// Transmit sends a packet from guest context, charging guest-side transmit
// costs, including software checksumming when offloads are not negotiated.
func (vm *VM) Transmit(p *packet.Packet) {
	tx := costmodel.VirtioGuestTx + costmodel.GuestStackPerPacket
	if vm.FastReflector {
		tx = costmodel.VirtioGuestTx / 2
	}
	vm.CPU.Consume(sim.Guest, tx)
	if vm.OffloadsNegotiated {
		p.Offloads |= packet.CsumPartial
	} else {
		vm.CPU.Consume(sim.Guest, costmodel.ChecksumCost(len(p.Data)))
		p.Offloads |= packet.CsumVerified
		// Without TSO negotiation the guest must segment to MSS
		// itself before transmitting; oversized sends are the
		// caller's bug.
	}
	vm.TxPackets++
	vm.Backend.GuestTransmit(p)
}

// Reflect is the default handler: swap Ethernet addresses and transmit
// back (the guest side of a PVP loop).
func Reflect(vm *VM, p *packet.Packet) {
	if len(p.Data) >= 12 {
		var tmp [6]byte
		copy(tmp[:], p.Data[0:6])
		copy(p.Data[0:6], p.Data[6:12])
		copy(p.Data[6:12], tmp[:])
	}
	p.ResetMetadata()
	vm.Transmit(p)
}
