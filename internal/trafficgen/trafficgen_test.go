package trafficgen

import (
	"testing"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

func TestUDPGenRateAndFlowCount(t *testing.T) {
	eng := sim.NewEngine(7)
	var got []*packet.Packet
	g := NewUDPGen(eng, 10, 64, func(p *packet.Packet) { got = append(got, p) })
	g.Run(1e6, 10*sim.Millisecond) // 1 Mpps for 10 ms = 10,000 packets
	eng.Run()
	if len(got) != 10000 {
		t.Fatalf("generated %d packets, want 10000", len(got))
	}
	// Frames are 60 bytes host-visible (64 on the wire with FCS).
	if len(got[0].Data) != 60 {
		t.Fatalf("frame size = %d", len(got[0].Data))
	}
	// Distinct flows: 10.
	flows := map[string]bool{}
	for _, p := range got {
		eth, _ := hdr.ParseEthernet(p.Data)
		ip, _ := hdr.ParseIPv4(p.Data[eth.HeaderLen:])
		udp, _ := hdr.ParseUDP(p.Data[eth.HeaderLen+ip.HeaderLen:])
		flows[ip.Src.String()+ip.Dst.String()+string(rune(udp.SrcPort))+string(rune(udp.DstPort))] = true
	}
	if len(flows) != 10 {
		t.Fatalf("distinct flows = %d, want 10", len(flows))
	}
}

func TestUDPGenDeterministicPerSeed(t *testing.T) {
	build := func() []byte {
		eng := sim.NewEngine(42)
		var first []byte
		g := NewUDPGen(eng, 100, 64, func(p *packet.Packet) {
			if first == nil {
				first = p.Data
			}
		})
		g.Run(1e6, sim.Millisecond)
		eng.Run()
		return first
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Fatal("same seed must generate identical traffic")
	}
}

func TestBulkTransferThroughLosslessPath(t *testing.T) {
	// Wire sender directly to receiver with a constant path delay; the
	// transfer must deliver everything it sends and self-clock on acks.
	eng := sim.NewEngine(1)
	var bulk *Bulk
	cfg := BulkConfig{
		Eng: eng, MSS: 1460, SendSize: 1460, Window: 64 * 1024, AckEvery: 2,
		SrcMAC: hdr.MAC{2, 0, 0, 0, 0, 1}, DstMAC: hdr.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: hdr.MakeIP4(10, 0, 0, 1), DstIP: hdr.MakeIP4(10, 0, 0, 2),
		SrcPort: 5001, DstPort: 5001,
		SendData: func(p *packet.Packet) {
			eng.Schedule(10*sim.Microsecond, func() { bulk.OnDataArrived(p) })
		},
		SendAck: func(p *packet.Packet) {
			eng.Schedule(10*sim.Microsecond, func() { bulk.OnAckArrived(p) })
		},
	}
	bulk = NewBulk(cfg)
	bulk.Start()
	eng.RunUntil(50 * sim.Millisecond)

	if bulk.delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Window-limited throughput: W/RTT = 64kB / 20us ~ 26 Gbps.
	gbps := bulk.ThroughputGbps()
	if gbps < 15 || gbps > 40 {
		t.Fatalf("throughput = %.1f Gbps, want ~26 (window/RTT)", gbps)
	}
}

func TestBulkWindowLimitsInflight(t *testing.T) {
	eng := sim.NewEngine(1)
	sent := 0
	var bulk *Bulk
	bulk = NewBulk(BulkConfig{
		Eng: eng, MSS: 1460, SendSize: 1460, Window: 8 * 1460, AckEvery: 2,
		SendData: func(p *packet.Packet) { sent++ }, // black hole: no acks
		SendAck:  func(p *packet.Packet) {},
	})
	bulk.Start()
	eng.Run()
	if sent != 8 {
		t.Fatalf("sent %d segments into a black hole, want window/MSS = 8", sent)
	}
}

func TestBulkTSOAndOffloadMarks(t *testing.T) {
	eng := sim.NewEngine(1)
	var seg *packet.Packet
	bulk := NewBulk(BulkConfig{
		Eng: eng, MSS: 1460, SendSize: 65536, Window: 65536,
		MarkTSO: true, MarkCsumPartial: true,
		SendData: func(p *packet.Packet) {
			if seg == nil {
				seg = p
			}
		},
		SendAck: func(p *packet.Packet) {},
	})
	bulk.Start()
	if seg == nil {
		t.Fatal("no segment sent")
	}
	if seg.SegSize != 1460 || seg.Offloads&packet.TSO == 0 {
		t.Fatalf("TSO marks missing: seg=%d off=%v", seg.SegSize, seg.Offloads)
	}
	if seg.Offloads&packet.CsumPartial == 0 {
		t.Fatal("csum partial mark missing")
	}
	if len(seg.Data) < 65536 {
		t.Fatalf("oversized segment len = %d", len(seg.Data))
	}
}

func TestBulkChargesEndpoints(t *testing.T) {
	eng := sim.NewEngine(1)
	senderCharged, receiverCharged := 0, 0
	var bulk *Bulk
	bulk = NewBulk(BulkConfig{
		Eng: eng, MSS: 100, SendSize: 100, Window: 200, AckEvery: 1,
		SenderCharge:   func(bytes int) { senderCharged += bytes },
		ReceiverCharge: func(bytes int) { receiverCharged += bytes },
		SendData:       func(p *packet.Packet) { eng.Schedule(1, func() { bulk.OnDataArrived(p) }) },
		SendAck:        func(p *packet.Packet) { eng.Schedule(1, func() { bulk.OnAckArrived(p) }) },
	})
	bulk.Start()
	eng.RunUntil(sim.Millisecond)
	if senderCharged == 0 || receiverCharged == 0 {
		t.Fatal("endpoint charges not applied")
	}
}

func TestRRMeasuresRTT(t *testing.T) {
	eng := sim.NewEngine(3)
	var rr *RR
	rr = NewRR(RRConfig{
		Eng: eng, Transactions: 500,
		SrcMAC: hdr.MAC{2, 0, 0, 0, 0, 1}, DstMAC: hdr.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: hdr.MakeIP4(10, 0, 0, 1), DstIP: hdr.MakeIP4(10, 0, 0, 2),
		SrcPort: 40000, DstPort: 12865,
		// The server's processing time rides on the request's path.
		SendRequest: func(p *packet.Packet) {
			serve := sim.Time(eng.Rand().Exp(5000))
			eng.Schedule(20*sim.Microsecond+serve, func() { rr.OnRequestArrived(p) })
		},
		SendResponse: func(p *packet.Packet) {
			eng.Schedule(20*sim.Microsecond, func() { rr.OnResponseArrived(p) })
		},
	})
	rr.Start()
	eng.Run()

	if rr.Latencies.Count() != 500 {
		t.Fatalf("completed %d/500", rr.Latencies.Count())
	}
	s := rr.Latencies.Summarize()
	// Fixed path 40us + Exp(5us) server time: P50 ~ 43.5us, long tail.
	if s.P50 < 40e3 || s.P50 > 55e3 {
		t.Fatalf("P50 = %.1f us", s.P50/1e3)
	}
	if s.P99 <= s.P50 {
		t.Fatal("exponential server delay must produce a tail")
	}
	tps := rr.TransactionsPerSec()
	if tps < 15000 || tps > 25000 {
		t.Fatalf("transactions/s = %.0f, want ~22k", tps)
	}
}

// srcIPFrame is a minimal template for the SrcIPGen tests.
func srcIPFrame() []byte {
	return hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 0), hdr.MakeIP4(10, 255, 0, 1), 64).
		UDPH(1000, 2000).PadTo(64).Build()
}

// srcIPRun runs g at 1 Mpps until the engine drains and returns each
// packet's (arrival time, source address).
func srcIPRun(g *SrcIPGen, horizon sim.Time) (at []sim.Time, src []hdr.IP4) {
	g.Sink = func(p *packet.Packet) {
		at = append(at, g.Eng.Now())
		d := p.Data[SrcIPOffset:]
		src = append(src, hdr.MakeIP4(d[0], d[1], d[2], d[3]))
	}
	g.Run(1e6)
	g.Eng.RunUntil(horizon)
	return at, src
}

func TestSrcIPGenCyclesOverASlidingWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	g := &SrcIPGen{Eng: eng, Template: srcIPFrame(), Class: 10, Base: 1 << 16, Window: 3,
		Until: 7 * sim.Microsecond}
	// Slide the window by one id after the fourth packet.
	eng.ScheduleAt(3*sim.Microsecond+1, func() { g.Base++ })
	at, src := srcIPRun(g, sim.Millisecond)

	want := []hdr.IP4{ // ids 65536+{0,1,2,0} then 65537+{1,2,0}
		hdr.MakeIP4(10, 1, 0, 0), hdr.MakeIP4(10, 1, 0, 1), hdr.MakeIP4(10, 1, 0, 2), hdr.MakeIP4(10, 1, 0, 0),
		hdr.MakeIP4(10, 1, 0, 2), hdr.MakeIP4(10, 1, 0, 3), hdr.MakeIP4(10, 1, 0, 1),
	}
	if len(src) != len(want) || g.Sent != uint64(len(want)) {
		t.Fatalf("sent %d packets (Sent = %d), want %d: Until must cut generation at 7us", len(src), g.Sent, len(want))
	}
	for i := range want {
		if src[i] != want[i] {
			t.Errorf("packet %d: src %s, want %s", i, src[i], want[i])
		}
		if at[i] != sim.Time(i)*sim.Microsecond {
			t.Errorf("packet %d at %v, want exactly periodic arrivals", i, at[i])
		}
	}
}

func TestSrcIPGenFreshIDsJitterAndStop(t *testing.T) {
	eng := sim.NewEngine(1)
	g := &SrcIPGen{Eng: eng, Template: srcIPFrame(), Class: 12, Jitter: true}
	eng.ScheduleAt(sim.Millisecond, g.Stop)
	at, src := srcIPRun(g, 2*sim.Millisecond)

	if n := len(src); n < 900 || n > 1100 {
		t.Fatalf("%d packets in 1 ms at 1 Mpps: jitter must preserve the mean rate", n)
	}
	varied := false
	for i := range src {
		if want := hdr.MakeIP4(12, byte(i>>16), byte(i>>8), byte(i)); src[i] != want {
			t.Fatalf("packet %d: src %s, want fresh id %s", i, src[i], want)
		}
		if i == 0 {
			continue
		}
		gap := at[i] - at[i-1]
		if gap < 750 || gap > 1250 {
			t.Fatalf("gap %d = %v, want within +-25%% of 1us", i, gap)
		}
		varied = varied || gap != sim.Microsecond
	}
	if !varied {
		t.Error("jittered arrivals are exactly periodic")
	}
	if !g.Stopped() || at[len(at)-1] > sim.Millisecond {
		t.Errorf("generation continued after Stop (last arrival %v)", at[len(at)-1])
	}
}
