package containersim

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

func TestContainerReflects(t *testing.T) {
	eng := sim.NewEngine(1)
	veth := vdev.NewLink("veth0")
	c := New(eng, Config{Name: "c0", Veth: veth})

	veth.ToPeer.Push(udpPkt())
	eng.Run()

	out := veth.FromPeer.Pop(4)
	if len(out) != 1 {
		t.Fatalf("reflected %d", len(out))
	}
	eth, _ := hdr.ParseEthernet(out[0].Data)
	if eth.Dst != macA {
		t.Fatal("MACs not swapped")
	}
	if c.RxPackets != 1 || c.TxPackets != 1 {
		t.Fatalf("stats rx=%d tx=%d", c.RxPackets, c.TxPackets)
	}
	// Container stack time is host softirq; app syscall time is host
	// system — never guest.
	if c.StackCPU.Busy(sim.Softirq) == 0 {
		t.Fatal("stack cost missing")
	}
	if c.StackCPU.Busy(sim.Guest) != 0 {
		t.Fatal("containers must not charge guest time")
	}
}

func TestContainerTransmitMarksLocalChecksum(t *testing.T) {
	eng := sim.NewEngine(1)
	veth := vdev.NewLink("veth0")
	c := New(eng, Config{Name: "c0", Veth: veth})
	p := udpPkt()
	c.Transmit(p)
	if p.Offloads&packet.CsumVerified == 0 {
		t.Fatal("local kernel traffic must carry verified checksums")
	}
	if veth.FromPeer.Len() != 1 {
		t.Fatal("transmit did not cross the veth")
	}
}

func TestContainerCustomHandler(t *testing.T) {
	eng := sim.NewEngine(1)
	veth := vdev.NewLink("veth0")
	hits := 0
	New(eng, Config{Name: "c0", Veth: veth,
		OnPacket: func(c *Container, p *packet.Packet) { hits++ }})
	veth.ToPeer.Push(udpPkt())
	veth.ToPeer.Push(udpPkt())
	eng.Run()
	if hits != 2 {
		t.Fatalf("handler hits = %d", hits)
	}
}
