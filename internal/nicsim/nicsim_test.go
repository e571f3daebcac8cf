package nicsim

import (
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

var (
	macA = hdr.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = hdr.MAC{0x02, 0, 0, 0, 0, 0x0b}
)

func udpPkt(srcPort uint16) *packet.Packet {
	return packet.New(hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(srcPort, 5000).PayloadLen(18).PadTo(64).Build())
}

func TestRSSSpreadsFlows(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := New(eng, Config{Name: "eth0", Queues: 4})
	for i := 0; i < 4000; i++ {
		nic.Receive(udpPkt(uint16(1000 + i)))
	}
	for i := 0; i < 4; i++ {
		got := nic.Queue(i).RxPackets
		if got < 600 || got > 1400 {
			t.Fatalf("queue %d has %d packets; RSS spread poor", i, got)
		}
	}
}

func TestSameFlowSameQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := New(eng, Config{Name: "eth0", Queues: 4})
	for i := 0; i < 100; i++ {
		nic.Receive(udpPkt(7777))
	}
	nonEmpty := 0
	for i := 0; i < 4; i++ {
		if nic.Queue(i).RxPackets > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("one flow landed on %d queues", nonEmpty)
	}
}

func TestNtupleSteeringBeatsRSS(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := New(eng, Config{Name: "eth0", Queues: 4})
	if err := nic.AddSteeringRule(SteeringRule{Proto: hdr.IPProtoUDP, DstPort: 5000, Queue: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		nic.Receive(udpPkt(uint16(i)))
	}
	if nic.Queue(3).RxPackets != 50 {
		t.Fatalf("steering rule ignored: q3=%d", nic.Queue(3).RxPackets)
	}
	if err := nic.AddSteeringRule(SteeringRule{Queue: 99}); err == nil {
		t.Fatal("rule to invalid queue must fail")
	}
}

func TestRingOverflowDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := New(eng, Config{Name: "eth0", Queues: 1, RingSize: 8})
	for i := 0; i < 20; i++ {
		nic.Receive(udpPkt(1))
	}
	if nic.Queue(0).RxPackets != 8 {
		t.Fatalf("accepted %d, want 8", nic.Queue(0).RxPackets)
	}
	if nic.RxDropsTotal() != 12 {
		t.Fatalf("drops = %d, want 12", nic.RxDropsTotal())
	}
}

func TestInterruptDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := New(eng, Config{Name: "eth0", Queues: 1})
	fired := sim.Time(-1)
	q := nic.Queue(0)
	q.SetWakeup(func() { fired = eng.Now() })
	q.ArmWakeup()
	eng.Schedule(100, func() { nic.Receive(udpPkt(1)) })
	eng.Run()
	min := sim.Time(100) + costmodel.InterruptLatencyMean/2
	if fired < min || fired > min+10*costmodel.InterruptLatencyMean {
		t.Fatalf("interrupt at %v, want jittered delay >= %v", fired, min)
	}
	// Disarmed after firing: a second packet must not re-trigger.
	fired = -1
	eng.Schedule(10, func() { nic.Receive(udpPkt(1)) })
	eng.Run()
	if fired != -1 {
		t.Fatal("interrupt must stay disarmed until rearmed")
	}
}

func TestRxChecksumOffloadMarksPackets(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := New(eng, Config{Name: "eth0", Queues: 1, Offloads: Offloads{RxCsum: true}})
	nic.Receive(udpPkt(1))
	p := nic.Queue(0).Pop(1)[0]
	if p.Offloads&packet.CsumVerified == 0 {
		t.Fatal("RxCsum offload must mark packets verified")
	}
}

func TestRSSHashDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	withHash := New(eng, Config{Name: "a", Queues: 1, Offloads: Offloads{RSSHashDeliver: true}})
	withHash.Receive(udpPkt(1))
	if p := withHash.Queue(0).Pop(1)[0]; !p.HasRSSHash {
		t.Fatal("hash must be delivered when offload present")
	}
	// AF_XDP case: no hardware hash available (Section 5.5).
	without := New(eng, Config{Name: "b", Queues: 1})
	without.Receive(udpPkt(1))
	if p := without.Queue(0).Pop(1)[0]; p.HasRSSHash {
		t.Fatal("hash must be absent without the offload")
	}
}

func TestTransmitPacesAtLineRate(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := New(eng, Config{Name: "eth0", Queues: 1, LinkRate: costmodel.LinkRate10G})
	var arrivals []sim.Time
	nic.ConnectWire(func(p *packet.Packet) { arrivals = append(arrivals, eng.Now()) })
	for i := 0; i < 3; i++ {
		nic.Transmit(udpPkt(uint16(i)))
	}
	eng.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// 64-byte frames at 10G: one every ~70ns.
	gap := arrivals[1] - arrivals[0]
	want := costmodel.TransmitTime(costmodel.LinkRate10G, 64)
	if gap != want {
		t.Fatalf("inter-frame gap %v, want %v", gap, want)
	}
}

func TestTransmitCsumOffload(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := New(eng, Config{Name: "eth0", Queues: 1, Offloads: Offloads{TxCsum: true}})
	var got *packet.Packet
	nic.ConnectWire(func(p *packet.Packet) { got = p })
	p := udpPkt(1)
	p.Offloads = packet.CsumPartial
	nic.Transmit(p)
	eng.Run()
	if got.Offloads&packet.CsumPartial != 0 || got.Offloads&packet.CsumVerified == 0 {
		t.Fatalf("offloads after hw csum = %v", got.Offloads)
	}
}

func TestTSOSegmentation(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := New(eng, Config{Name: "eth0", Queues: 1, Offloads: Offloads{TSO: true, TxCsum: true}})
	var frames []*packet.Packet
	nic.ConnectWire(func(p *packet.Packet) { frames = append(frames, p) })

	// A 16 kB TCP segment with MSS 1460.
	big := packet.New(hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(1, 1, 1, 1), hdr.MakeIP4(2, 2, 2, 2), 64).
		TCPH(1, 2, 0, 0, hdr.TCPAck).PayloadLen(16000).Build())
	big.L4Offset = 34
	big.SegSize = 1460
	big.Offloads = packet.TSO | packet.CsumPartial
	nic.Transmit(big)
	eng.Run()

	want := (16000 + 1459) / 1460
	if len(frames) != want {
		t.Fatalf("segments = %d, want %d", len(frames), want)
	}
	total := 0
	for _, f := range frames {
		if f.Offloads&packet.CsumVerified == 0 {
			t.Fatal("TSO segments must carry hardware checksums")
		}
		if f.SegSize != 0 {
			t.Fatal("segments must not remain TSO-marked")
		}
		total += len(f.Data) - 54
	}
	if total != 16000 {
		t.Fatalf("payload bytes = %d, want 16000", total)
	}
}

func TestTSOWithoutHardwareNotSplit(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := New(eng, Config{Name: "eth0", Queues: 1}) // no TSO
	var frames []*packet.Packet
	nic.ConnectWire(func(p *packet.Packet) { frames = append(frames, p) })
	big := udpPkt(1)
	big.SegSize = 1460
	nic.Transmit(big)
	eng.Run()
	if len(frames) != 1 {
		t.Fatalf("frames = %d; software must have segmented beforehand", len(frames))
	}
}

func TestWireConnectsTwoNICs(t *testing.T) {
	eng := sim.NewEngine(1)
	a := New(eng, Config{Name: "a", Queues: 1})
	b := New(eng, Config{Name: "b", Queues: 1})
	a.ConnectWire(func(p *packet.Packet) { b.Receive(p) })
	b.ConnectWire(func(p *packet.Packet) { a.Receive(p) })
	a.Transmit(udpPkt(9))
	eng.Run()
	if b.Queue(0).RxPackets != 1 {
		t.Fatal("frame did not cross the wire")
	}
}

// benchmarkNICReceive times the wire-side ingress — classify, RSS, ring —
// over 64 flows, popping the rings every 32 frames as a consumer would.
func benchmarkNICReceive(b *testing.B, queues int) {
	nic := New(sim.NewEngine(1), Config{Name: "eth0", Ifindex: 1, Queues: queues})
	pool := packet.NewPool(256, 64, true)
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = udpPkt(uint16(1000 + i)).Data
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nic.Receive(pool.GetCopy(frames[i%len(frames)]))
		if i%32 == 31 {
			for q := 0; q < queues; q++ {
				for _, p := range nic.Queue(q).Pop(64) {
					p.Release()
				}
			}
		}
	}
}

func BenchmarkNICReceive1Q(b *testing.B)  { benchmarkNICReceive(b, 1) }
func BenchmarkNICReceive12Q(b *testing.B) { benchmarkNICReceive(b, 12) }
