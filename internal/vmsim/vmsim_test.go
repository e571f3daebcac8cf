package vmsim

import (
	"testing"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/vdev"
)

var (
	macA = hdr.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = hdr.MAC{0x02, 0, 0, 0, 0, 0x0b}
)

func udpPkt() *packet.Packet {
	return packet.New(hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1, 2).PayloadLen(18).PadTo(64).Build())
}

func TestVhostReflector(t *testing.T) {
	eng := sim.NewEngine(1)
	dev := vdev.NewLink("vh0")
	vm := New(eng, Config{Name: "vm0", Backend: &VhostUserBackend{Dev: dev}})

	dev.ToPeer.Push(udpPkt())
	eng.Run()

	out := dev.FromPeer.Pop(4)
	if len(out) != 1 {
		t.Fatalf("reflected %d packets", len(out))
	}
	eth, _ := hdr.ParseEthernet(out[0].Data)
	if eth.Dst != macA || eth.Src != macB {
		t.Fatal("reflector must swap MACs")
	}
	if vm.RxPackets != 1 || vm.TxPackets != 1 {
		t.Fatalf("stats rx=%d tx=%d", vm.RxPackets, vm.TxPackets)
	}
	// All VM work lands in the Guest category.
	if vm.CPU.Busy(sim.Guest) == 0 {
		t.Fatal("guest time not charged")
	}
	if vm.CPU.Busy(sim.User) != 0 || vm.CPU.Busy(sim.Softirq) != 0 {
		t.Fatal("VM work leaked into host categories")
	}
}

func TestTapBackendPaysQemuRelay(t *testing.T) {
	eng := sim.NewEngine(1)
	tap := vdev.NewLink("tap0")
	qemu := eng.NewCPU("qemu")
	backend := NewTapBackendMQ(eng, tap, qemu, qemu)
	vm := New(eng, Config{Name: "vm0", Backend: backend})

	tap.ToPeer.Push(udpPkt())
	eng.Run()

	if got := tap.FromPeer.Len(); got != 1 {
		t.Fatalf("reflected %d packets via tap", got)
	}
	if qemu.Busy(sim.User) == 0 {
		t.Fatal("QEMU relay cost not charged")
	}
	if vm.CPU.Busy(sim.Guest) == 0 {
		t.Fatal("guest cost not charged")
	}
}

func TestOffloadNegotiation(t *testing.T) {
	eng := sim.NewEngine(1)
	dev := vdev.NewLink("vh0")
	vm := New(eng, Config{Name: "vm0", Backend: &VhostUserBackend{Dev: dev}, OffloadsNegotiated: true})
	p := udpPkt()
	vm.Transmit(p)
	if p.Offloads&packet.CsumPartial == 0 {
		t.Fatal("negotiated offloads must mark CsumPartial")
	}
	csumCost := vm.CPU.Busy(sim.Guest)

	// Without negotiation the guest pays the checksum itself.
	eng2 := sim.NewEngine(1)
	dev2 := vdev.NewLink("vh1")
	vm2 := New(eng2, Config{Name: "vm1", Backend: &VhostUserBackend{Dev: dev2}})
	p2 := udpPkt()
	vm2.Transmit(p2)
	if p2.Offloads&packet.CsumPartial != 0 {
		t.Fatal("without negotiation there must be no partial csum")
	}
	if vm2.CPU.Busy(sim.Guest) <= csumCost {
		t.Fatal("software checksum must cost guest time")
	}
}

func TestCustomHandler(t *testing.T) {
	eng := sim.NewEngine(1)
	dev := vdev.NewLink("vh0")
	var got *packet.Packet
	New(eng, Config{Name: "vm0", Backend: &VhostUserBackend{Dev: dev},
		OnPacket: func(vm *VM, p *packet.Packet) { got = p }})
	dev.ToPeer.Push(udpPkt())
	eng.Run()
	if got == nil {
		t.Fatal("custom handler not invoked")
	}
	if dev.FromPeer.Len() != 0 {
		t.Fatal("custom handler must not auto-reflect")
	}
}
