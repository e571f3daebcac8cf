package core

import (
	"errors"
	"testing"

	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/netlinksim"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
	"ovsxdp/internal/vdev"
	"ovsxdp/internal/xdp"
)

var (
	macA = hdr.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = hdr.MAC{0x02, 0, 0, 0, 0, 0x0b}
)

func udpPkt(sport uint16) *packet.Packet {
	return packet.New(hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(sport, 2000).PayloadLen(18).PadTo(64).Build())
}

// forwardPipeline sends in_port=1 to port 2.
func forwardPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	m := flow.NewMaskBuilder().InPort().Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, m),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	return pl
}

// p2pBed wires an AF_XDP (or DPDK) P2P forwarding testbed: NIC A receives
// generated packets, the datapath forwards them out NIC B, whose wire
// counts deliveries and releases them.
type p2pBed struct {
	eng          *sim.Engine
	dp           *Datapath
	pmd          *PMD
	nicA         *nicsim.NIC
	nicB         *nicsim.NIC
	portA, portB *AFXDPPort
	sent         int
	recvd        int
}

func newAFXDPP2P(t *testing.T, opts Options, lock afxdp.LockMode, mode Mode) *p2pBed {
	t.Helper()
	eng := sim.NewEngine(1)
	bed := &p2pBed{eng: eng}
	bed.nicA = nicsim.New(eng, nicsim.Config{Name: "ethA", Ifindex: 1, Queues: 1})
	bed.nicB = nicsim.New(eng, nicsim.Config{Name: "ethB", Ifindex: 2, Queues: 1})
	bed.nicB.ConnectWire(func(p *packet.Packet) {
		bed.recvd++
		p.Release()
	})
	if _, err := AttachDefaultProgram(bed.nicA); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachDefaultProgram(bed.nicB); err != nil {
		t.Fatal(err)
	}

	dp := NewDatapath(eng, forwardPipeline(), opts)
	bed.portA = NewAFXDPPort(AFXDPPortConfig{ID: 1, NIC: bed.nicA, Eng: eng, LockMode: lock})
	bed.portB = NewAFXDPPort(AFXDPPortConfig{ID: 2, NIC: bed.nicB, Eng: eng, LockMode: lock})
	dp.AddPort(bed.portA)
	dp.AddPort(bed.portB)

	pmd := dp.NewPMD(mode, nil)
	dp.AssignRxqTo(pmd, bed.portA, 0)
	pmd.Start()

	bed.dp = dp
	bed.pmd = pmd
	return bed
}

// offer injects n packets of one flow, spaced at interval.
func (b *p2pBed) offer(n int, interval sim.Time) {
	for i := 0; i < n; i++ {
		b.eng.Schedule(sim.Time(i)*interval, func() {
			b.nicA.Receive(udpPkt(7777))
			b.sent++
		})
	}
}

func TestAFXDPForwardEndToEnd(t *testing.T) {
	bed := newAFXDPP2P(t, Options{}, afxdp.LockSpinBatched, ModePoll)
	bed.offer(100, 1000)
	bed.eng.RunUntil(10 * sim.Millisecond)
	if bed.recvd != 100 {
		t.Fatalf("received %d/100 packets", bed.recvd)
	}
	// One upcall (first packet), then EMC hits.
	if bed.dp.Upcalls != 1 {
		t.Fatalf("upcalls = %d, want 1", bed.dp.Upcalls)
	}
	if hits := bed.pmd.Perf.EMCHits; hits < 98 {
		t.Fatalf("EMC hits = %d, want ~99", hits)
	}
	// CPU time must appear in both user (PMD) and softirq (XDP + tx
	// drain) categories.
	usage := bed.eng.CPUReport(bed.eng.Now())
	if usage[sim.User] <= 0 || usage[sim.Softirq] <= 0 {
		t.Fatalf("usage = %s", usage)
	}
}

func TestAFXDPInterruptModeForwards(t *testing.T) {
	bed := newAFXDPP2P(t, Options{}, afxdp.LockSpinBatched, ModeInterrupt)
	bed.offer(50, 2000)
	bed.eng.RunUntil(10 * sim.Millisecond)
	if bed.recvd != 50 {
		t.Fatalf("received %d/50 in interrupt mode", bed.recvd)
	}
}

// TestAFXDPPortPoolsDrain: every packet an AF_XDP port's pool hands out
// comes back. After 5,000 forwarded packets, in poll mode and in interrupt
// mode, both ports' pools are at capacity and none fell back to the heap.
// Pools grow on demand, so a missed release would grow the heap instead.
func TestAFXDPPortPoolsDrain(t *testing.T) {
	for _, mode := range []Mode{ModePoll, ModeInterrupt} {
		bed := newAFXDPP2P(t, Options{}, afxdp.LockSpinBatched, mode)
		bed.offer(5000, 2000)
		bed.eng.RunUntil(20 * sim.Millisecond)
		if bed.recvd != 5000 {
			t.Errorf("%s: received %d/5000", mode, bed.recvd)
		}
		for _, port := range []*AFXDPPort{bed.portA, bed.portB} {
			if n, allocs := port.pkts.Available(), port.pkts.Allocs; n != pktPoolSize || allocs != 0 {
				t.Errorf("%s: %s pool has %d of %d packets back and %d heap fallbacks, want all and 0",
					mode, port.Name(), n, pktPoolSize, allocs)
			}
		}
	}
}

// TestTable2RateLadder reproduces the Table 2 ordering end to end: each
// configuration must sustain a strictly higher rate than the one before.
func TestTable2RateLadder(t *testing.T) {
	type cfg struct {
		name string
		opts Options
		lock afxdp.LockMode
		mode Mode
	}
	noO4 := Options{MetadataMmap: true}
	cfgs := []cfg{
		{"none", noO4, afxdp.LockMutex, ModeNonPMD},
		{"O1", noO4, afxdp.LockMutex, ModePoll},
		{"O1+O2", noO4, afxdp.LockSpin, ModePoll},
		{"O1..O3", noO4, afxdp.LockSpinBatched, ModePoll},
		{"O1..O4", Options{}, afxdp.LockSpinBatched, ModePoll},
		{"O1..O5", Options{AssumeCsumOffload: true}, afxdp.LockSpinBatched, ModePoll},
	}
	// Measure the PMD's user-CPU cost per packet for each configuration;
	// rate ~ 1/cost. (The full lossless-rate search lives in the
	// experiments package; this is the ordering contract.)
	var costs []float64
	for _, c := range cfgs {
		bed := newAFXDPP2P(t, c.opts, c.lock, c.mode)
		bed.offer(200, 3000)
		bed.eng.RunUntil(20 * sim.Millisecond)
		if bed.recvd < 190 {
			t.Fatalf("%s: received %d/200", c.name, bed.recvd)
		}
		busy := bed.pmd.CPU.Busy(sim.User) + bed.pmd.CPU.Busy(sim.System) - bed.pmd.Perf.Cycles[perf.StageIdle]
		costs = append(costs, float64(busy)/float64(bed.recvd))
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] >= costs[i-1] {
			t.Fatalf("ladder violated at %s: %.1f >= %.1f ns/pkt",
				cfgs[i].name, costs[i], costs[i-1])
		}
	}
}

func TestDPDKForwardEndToEnd(t *testing.T) {
	eng := sim.NewEngine(1)
	nicA := nicsim.New(eng, nicsim.Config{Name: "dpdk0", Queues: 1,
		Offloads: nicsim.Offloads{TxCsum: true, TSO: true, RSSHashDeliver: true}})
	nicB := nicsim.New(eng, nicsim.Config{Name: "dpdk1", Queues: 1,
		Offloads: nicsim.Offloads{TxCsum: true, TSO: true}})
	recvd := 0
	nicB.ConnectWire(func(*packet.Packet) { recvd++ })

	dp := NewDatapath(eng, forwardPipeline(), Options{})
	dp.AddPort(NewDPDKPort(1, nicA))
	portB := NewDPDKPort(2, nicB)
	dp.AddPort(portB)
	pmd := dp.NewPMD(ModePoll, nil)
	dp.AssignRxqTo(pmd, dp.Port(1), 0)
	pmd.Start()

	for i := 0; i < 100; i++ {
		eng.Schedule(sim.Time(i)*500, func() { nicA.Receive(udpPkt(1)) })
	}
	eng.RunUntil(5 * sim.Millisecond)
	if recvd != 100 {
		t.Fatalf("received %d/100 via DPDK", recvd)
	}
	// DPDK keeps everything in userspace: no softirq time at all.
	usage := eng.CPUReport(eng.Now())
	if usage[sim.Softirq] != 0 {
		t.Fatalf("DPDK must not use softirq: %s", usage)
	}
}

func TestDPDKFasterThanAFXDP(t *testing.T) {
	perPkt := func(mk func() (*sim.Engine, *PMD, *int)) float64 {
		eng, pmd, recvd := mk()
		eng.RunUntil(20 * sim.Millisecond)
		if *recvd < 190 {
			t.Fatalf("received %d", *recvd)
		}
		return float64(pmd.CPU.BusyTotal()-pmd.Perf.Cycles[perf.StageIdle]) / float64(*recvd)
	}
	afxdpCost := perPkt(func() (*sim.Engine, *PMD, *int) {
		bed := newAFXDPP2P(t, Options{}, afxdp.LockSpinBatched, ModePoll)
		bed.offer(200, 3000)
		return bed.eng, bed.pmd, &bed.recvd
	})
	dpdkCost := perPkt(func() (*sim.Engine, *PMD, *int) {
		eng := sim.NewEngine(1)
		nicA := nicsim.New(eng, nicsim.Config{Name: "d0", Queues: 1})
		nicB := nicsim.New(eng, nicsim.Config{Name: "d1", Queues: 1})
		recvd := 0
		nicB.ConnectWire(func(*packet.Packet) { recvd++ })
		dp := NewDatapath(eng, forwardPipeline(), Options{})
		dp.AddPort(NewDPDKPort(1, nicA))
		dp.AddPort(NewDPDKPort(2, nicB))
		pmd := dp.NewPMD(ModePoll, nil)
		dp.AssignRxqTo(pmd, dp.Port(1), 0)
		pmd.Start()
		for i := 0; i < 200; i++ {
			eng.Schedule(sim.Time(i)*3000, func() { nicA.Receive(udpPkt(1)) })
		}
		return eng, pmd, &recvd
	})
	if dpdkCost >= afxdpCost {
		t.Fatalf("DPDK per-packet cost %.0f must beat AF_XDP %.0f", dpdkCost, afxdpCost)
	}
}

func TestVhostPortRoundTrip(t *testing.T) {
	eng := sim.NewEngine(1)
	dev := vdev.NewLink("vhost0")
	dp := NewDatapath(eng, forwardPipeline(), Options{})
	vp := NewLinkPort(1, "vhostuser", dev, nil)
	dp.AddPort(vp)
	sinkDev := vdev.NewLink("vhost1")
	dp.AddPort(NewLinkPort(2, "vhostuser", sinkDev, nil))
	pmd := dp.NewPMD(ModePoll, nil)
	dp.AssignRxqTo(pmd, vp, 0)
	pmd.Start()

	// Guest transmits 10 packets.
	for i := 0; i < 10; i++ {
		dev.FromPeer.Push(udpPkt(uint16(i)))
	}
	eng.RunUntil(sim.Millisecond)
	if got := sinkDev.ToPeer.Len(); got != 10 {
		t.Fatalf("delivered %d/10 to the destination guest ring", got)
	}
}

func TestTapPortChargesSystemTime(t *testing.T) {
	eng := sim.NewEngine(1)
	tap := vdev.NewLink("tap0")
	dp := NewDatapath(eng, forwardPipeline(), Options{})
	tp := NewLinkPort(1, "tap", tap, nil)
	dp.AddPort(tp)
	tap2 := vdev.NewLink("tap1")
	dp.AddPort(NewLinkPort(2, "tap", tap2, nil))
	pmd := dp.NewPMD(ModePoll, nil)
	dp.AssignRxqTo(pmd, tp, 0)
	pmd.Start()

	for i := 0; i < 20; i++ {
		tap.FromPeer.Push(udpPkt(uint16(i)))
	}
	eng.RunUntil(sim.Millisecond)
	if tap2.ToPeer.Len() != 20 {
		t.Fatalf("delivered %d/20", tap2.ToPeer.Len())
	}
	if pmd.CPU.Busy(sim.System) == 0 {
		t.Fatal("tap I/O must charge system (syscall) time")
	}
}

func TestCTRecirculationInUserspace(t *testing.T) {
	eng := sim.NewEngine(1)
	pl := ofproto.NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	mCt := flow.NewMaskBuilder().CtState(0xff).Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []ofproto.Action{ofproto.CT(3, true, 10)}})
	pl.AddRule(&ofproto.Rule{TableID: 10, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{CtState: 0x03}, mCt),
		Actions: []ofproto.Action{ofproto.Output(2)}})

	dp := NewDatapath(eng, pl, Options{})
	tapIn := vdev.NewLink("in")
	tapOut := vdev.NewLink("out")
	inPort := NewLinkPort(1, "tap", tapIn, nil)
	dp.AddPort(inPort)
	dp.AddPort(NewLinkPort(2, "tap", tapOut, nil))
	pmd := dp.NewPMD(ModePoll, nil)
	dp.AssignRxqTo(pmd, inPort, 0)
	pmd.Start()

	syn := packet.New(hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		TCPH(1000, 80, 1, 0, hdr.TCPSyn).PadTo(64).Build())
	tapIn.FromPeer.Push(syn)
	eng.RunUntil(sim.Millisecond)

	if tapOut.ToPeer.Len() != 1 {
		t.Fatalf("ct+recirc did not forward (drops=%d)", dp.Drops)
	}
	if dp.Recirculations != 1 {
		t.Fatalf("recirculations = %d", dp.Recirculations)
	}
	if dp.Ct.ZoneCount(3) != 1 {
		t.Fatal("connection not committed")
	}
	// Two passes -> two megaflows.
	if pmd.Classifier().Len() != 2 {
		t.Fatalf("megaflows = %d, want 2", pmd.Classifier().Len())
	}
}

// TestTunnelPushPopThroughDatapath: a Geneve push leaves its outer UDP
// checksum to the egress, which settles it like any partial frame — in
// software, on the PMD's actions stage, out of a port without checksum
// offload (AF_XDP) unless O5 is assumed, for free out of one with it (DPDK,
// tap) — and the pushed frame pops back to its inner frame on a tunnel port.
// The checksum charge is the push pass's actions cycles less the
// encapsulation and less a pass sending the same outer frame straight out.
func TestTunnelPushPopThroughDatapath(t *testing.T) {
	vtep, remote := hdr.MakeIP4(172, 16, 0, 1), hdr.MakeIP4(172, 16, 0, 2)
	cases := []struct {
		name   string
		egress string // "tap", "afxdp" or "dpdk"
		assume bool   // O5: AssumeCsumOffload
		csum   bool   // the outer checksum costs ChecksumCost(len(outer)); else nothing
	}{
		{"tap egress", "tap", false, false},
		{"afxdp egress", "afxdp", false, true},
		{"afxdp egress, O5 assumed", "afxdp", true, false},
		{"dpdk egress", "dpdk", false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine(1)

			// Routing for the tunnel next hop.
			kern := netlinksim.NewKernel()
			idx, _ := kern.AddLink("uplink", "mlx5", hdr.MAC{2, 0xff, 0, 0, 0, 1}, 1600)
			kern.AddAddr("uplink", vtep, 16)
			kern.AddNeigh(netlinksim.Neigh{IP: remote, MAC: hdr.MAC{2, 0xff, 0, 0, 0, 2}, LinkIndex: idx})

			pl := ofproto.NewPipeline()
			mIn := flow.NewMaskBuilder().InPort().Build()
			// Encap side: traffic from port 1 goes into a Geneve tunnel
			// out port 2; port 5 sends an outer frame out port 2 as it is.
			pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
				Match: ofproto.NewMatch(flow.Fields{InPort: 1}, mIn),
				Actions: []ofproto.Action{
					ofproto.SetTunnel(tunnel.Config{Kind: tunnel.Geneve, LocalIP: vtep, RemoteIP: remote, VNI: 88}),
					ofproto.Output(2)}})
			pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
				Match:   ofproto.NewMatch(flow.Fields{InPort: 5}, mIn),
				Actions: []ofproto.Action{ofproto.Output(2)}})
			// Decap side: tunneled traffic arriving on port 3 pops to
			// virtual port 100, whose pass forwards to port 4.
			pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 2,
				Match:   ofproto.NewMatch(flow.Fields{InPort: 3}, mIn),
				Actions: []ofproto.Action{ofproto.TunnelPop(100)}})
			pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
				Match:   ofproto.NewMatch(flow.Fields{InPort: 100}, mIn),
				Actions: []ofproto.Action{ofproto.Output(4)}})

			dp := NewDatapath(eng, pl, Options{AssumeCsumOffload: c.assume})
			dp.Encapper = tunnel.NewEncapper(netlinksim.NewCache(kern))

			taps := make([]*vdev.Link, 6)
			var wire []*packet.Packet
			for i := uint32(1); i <= 5; i++ {
				taps[i] = vdev.NewLink("t")
				if i != 2 || c.egress == "tap" {
					dp.AddPort(NewLinkPort(i, "tap", taps[i], nil))
					continue
				}
				var offloads nicsim.Offloads
				if c.egress == "dpdk" {
					offloads = nicsim.Offloads{TxCsum: true, RxCsum: true, TSO: true}
				}
				nic := nicsim.New(eng, nicsim.Config{Name: "uplink", Ifindex: 2, Queues: 1, Offloads: offloads})
				nic.ConnectWire(func(p *packet.Packet) { wire = append(wire, p) })
				if c.egress == "dpdk" {
					dp.AddPort(NewDPDKPort(2, nic))
					continue
				}
				if _, err := AttachDefaultProgram(nic); err != nil {
					t.Fatal(err)
				}
				dp.AddPort(NewAFXDPPort(AFXDPPortConfig{ID: 2, NIC: nic, Eng: eng}))
			}
			egress := func() []*packet.Packet {
				if c.egress == "tap" {
					return taps[2].ToPeer.Pop(10)
				}
				out := wire
				wire = nil
				return out
			}
			pmd := dp.NewPMD(ModePoll, nil)
			for _, id := range []uint32{1, 3, 5} {
				dp.AssignRxqTo(pmd, dp.Port(id), 0)
			}
			pmd.Start()
			actions := func() sim.Time { return pmd.Perf.Cycles[perf.StageActions] }

			// Encap: inner frame in, Geneve frame out port 2.
			taps[1].FromPeer.Push(udpPkt(1))
			eng.RunUntil(sim.Millisecond)
			pushed := actions()
			outFrames := egress()
			if len(outFrames) != 1 {
				t.Fatalf("encap output = %d frames", len(outFrames))
			}
			inner, wasTunnel, err := tunnel.Decap(outFrames[0])
			if err != nil || !wasTunnel || inner.Tunnel.VNI != 88 {
				t.Fatalf("output is not a VNI-88 Geneve frame: %v %v", wasTunnel, err)
			}

			// The same outer frame, its checksum settled, sent straight out.
			taps[5].FromPeer.Push(packet.New(append([]byte(nil), outFrames[0].Data...)))
			eng.RunUntil(2 * sim.Millisecond)
			straight := actions() - pushed
			if len(egress()) != 1 {
				t.Fatal("the outer frame sent straight out did not leave")
			}
			var want sim.Time
			if c.csum {
				want = costmodel.ChecksumCost(len(outFrames[0].Data))
			}
			if got := pushed - straight - costmodel.TunnelEncap; got != want {
				t.Fatalf("outer checksum charged %v to actions, want %v", got, want)
			}

			// Decap: feed the Geneve frame into port 3; the inner frame
			// must appear at port 4.
			outFrames[0].ResetMetadata()
			taps[3].FromPeer.Push(outFrames[0])
			eng.RunUntil(3 * sim.Millisecond)
			popped := taps[4].ToPeer.Pop(10)
			if len(popped) != 1 {
				t.Fatalf("decap output = %d frames (drops=%d)", len(popped), dp.Drops)
			}
			if popped[0].Tunnel == nil || popped[0].Tunnel.VNI != 88 {
				t.Fatal("decapped packet lost tunnel metadata")
			}
		})
	}
}

func TestSoftwareTSOSegmentation(t *testing.T) {
	eng := sim.NewEngine(1)
	dp := NewDatapath(eng, forwardPipeline(), Options{})
	tapIn := vdev.NewLink("in")
	inPort := NewLinkPort(1, "tap", tapIn, nil)
	dp.AddPort(inPort)

	// Egress via AF_XDP (no TSO hardware).
	nicB := nicsim.New(eng, nicsim.Config{Name: "ethB", Ifindex: 2, Queues: 1})
	if _, err := AttachDefaultProgram(nicB); err != nil {
		t.Fatal(err)
	}
	frames, payload := 0, 0
	nicB.ConnectWire(func(f *packet.Packet) {
		frames++
		if len(f.Data) > 54+1460 {
			t.Errorf("wire frame of %d bytes, above header + MSS", len(f.Data))
		}
		payload += len(f.Data) - 54
	})
	dp.AddPort(NewAFXDPPort(AFXDPPortConfig{ID: 2, NIC: nicB, Eng: eng}))
	pmd := dp.NewPMD(ModePoll, nil)
	dp.AssignRxqTo(pmd, inPort, 0)
	pmd.Start()

	big := packet.New(hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		TCPH(1, 2, 0, 0, hdr.TCPAck).PayloadLen(8000).Build())
	big.SegSize = 1460
	big.Offloads = packet.TSO
	tapIn.FromPeer.Push(big)
	eng.RunUntil(sim.Millisecond)

	want := (8000 + 1459) / 1460
	if frames != want || payload != 8000 {
		t.Fatalf("wire frames = %d carrying %d payload bytes, want %d carrying 8000 (software TSO)", frames, payload, want)
	}

	// With AssumeTSO the oversized frame passes through whole, out of the
	// port without TSO that Figure 8(c) assumes it on: the generic-mode
	// veth, whose skb carries the segment. (An AF_XDP NIC port refuses it:
	// a 2 KB umem chunk cannot hold it, see TestAFXDPTxRefusesOversizeFrame.)
	eng2 := sim.NewEngine(1)
	dp2 := NewDatapath(eng2, forwardPipeline(), Options{AssumeTSO: true})
	tapIn2 := vdev.NewLink("in")
	inPort2 := NewLinkPort(1, "tap", tapIn2, nil)
	dp2.AddPort(inPort2)
	vethOut := vdev.NewLink("veth-out")
	dp2.AddPort(NewLinkPort(2, "veth", vethOut, eng2.NewCPU("softirq")))
	pmd2 := dp2.NewPMD(ModePoll, nil)
	dp2.AssignRxqTo(pmd2, inPort2, 0)
	pmd2.Start()
	big2 := big.Clone()
	big2.ResetMetadata()
	big2.SegSize = 1460
	tapIn2.FromPeer.Push(big2)
	eng2.RunUntil(sim.Millisecond)
	if out := vethOut.ToPeer.Pop(10); len(out) != 1 || len(out[0].Data) != 14+20+20+8000 {
		t.Fatalf("AssumeTSO: %d frames (want 1 of %d bytes)", len(out), 14+20+20+8000)
	}
}

// TestTSOReleasesSuperFrame: a TSO super-frame drawn from a pool goes back to
// it once its segments are sent, whether the datapath's software TSO split it
// (out of an AF_XDP port) or a NIC's hardware TSO did.
func TestTSOReleasesSuperFrame(t *testing.T) {
	superFrame := func(pool *packet.Pool) *packet.Packet {
		p := pool.GetCopy(hdr.NewBuilder().Eth(macA, macB).
			IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
			TCPH(1, 2, 0, 0, hdr.TCPAck).PayloadLen(8000).Build())
		p.L4Offset = 34
		p.SegSize = 1460
		p.Offloads = packet.TSO
		return p
	}
	want := (8000 + 1459) / 1460

	// Software TSO: tap in, AF_XDP NIC port (no TSO) out.
	eng := sim.NewEngine(1)
	dp := NewDatapath(eng, forwardPipeline(), Options{})
	tapIn := vdev.NewLink("in")
	inPort := NewLinkPort(1, "tap", tapIn, nil)
	dp.AddPort(inPort)
	nicB := nicsim.New(eng, nicsim.Config{Name: "ethB", Ifindex: 2, Queues: 1})
	if _, err := AttachDefaultProgram(nicB); err != nil {
		t.Fatal(err)
	}
	frames := 0
	nicB.ConnectWire(func(f *packet.Packet) { frames++; f.Release() })
	dp.AddPort(NewAFXDPPort(AFXDPPortConfig{ID: 2, NIC: nicB, Eng: eng}))
	pmd := dp.NewPMD(ModePoll, nil)
	dp.AssignRxqTo(pmd, inPort, 0)
	pmd.Start()
	pool := packet.NewPool(4, 9000, true)
	tapIn.FromPeer.Push(superFrame(pool))
	eng.RunUntil(sim.Millisecond)
	if frames != want || pool.Available() != 4 {
		t.Fatalf("software TSO: %d wire frames (want %d), pool available %d of 4", frames, want, pool.Available())
	}

	// Hardware TSO: the NIC splits it.
	eng2 := sim.NewEngine(1)
	nic := nicsim.New(eng2, nicsim.Config{Name: "eth0", Queues: 1, Offloads: nicsim.Offloads{TSO: true, TxCsum: true}})
	frames = 0
	nic.ConnectWire(func(f *packet.Packet) { frames++; f.Release() })
	pool2 := packet.NewPool(4, 9000, true)
	nic.Transmit(superFrame(pool2))
	eng2.Run()
	if frames != want || pool2.Available() != 4 {
		t.Fatalf("hardware TSO: %d wire frames (want %d), pool available %d of 4", frames, want, pool2.Available())
	}
}

// TestAFXDPTxRefusesOversizeFrame: a frame longer than a umem chunk cannot
// be described to the kernel, so the AF_XDP port drops and counts it instead
// of sending its first 2 KB.
func TestAFXDPTxRefusesOversizeFrame(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := nicsim.New(eng, nicsim.Config{Name: "ethB", Queues: 1})
	if _, err := AttachDefaultProgram(nic); err != nil {
		t.Fatal(err)
	}
	var wire []int
	nic.ConnectWire(func(p *packet.Packet) { wire = append(wire, len(p.Data)) })
	port := NewAFXDPPort(AFXDPPortConfig{ID: 2, NIC: nic, Eng: eng})
	cpu := eng.NewCPU("pmd")
	pool := packet.NewPool(2, 64, true)
	port.Tx(cpu, 0, pool.GetCopy(make([]byte, 3000)))
	port.Tx(cpu, 0, pool.GetCopy(make([]byte, 2048)))
	port.Flush(cpu, 0)
	eng.RunUntil(sim.Millisecond)
	if port.TxDrops != 1 || len(wire) != 1 || wire[0] != 2048 || pool.Available() != 2 {
		t.Fatalf("tx drops %d, wire frames %v, pool %d of 2 free; want 1, [2048], 2",
			port.TxDrops, wire, pool.Available())
	}
}

// TestAFXDPPortTaskDTransmitsOnWire: an AF_XDP port whose NIC runs Table
// 5's task D sends the program's XDP_TX frame, MACs swapped, out that NIC's
// wire without it reaching the socket.
func TestAFXDPPortTaskDTransmitsOnWire(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := nicsim.New(eng, nicsim.Config{Name: "ethA", Queues: 1})
	prog := xdp.NewParseSwapForward()
	if err := prog.Load(); err != nil {
		t.Fatal(err)
	}
	if err := nic.Hook.Attach(prog); err != nil {
		t.Fatal(err)
	}
	var wire []hdr.Ethernet
	nic.ConnectWire(func(p *packet.Packet) {
		eth, _ := hdr.ParseEthernet(p.Data)
		wire = append(wire, eth)
	})
	port := NewAFXDPPort(AFXDPPortConfig{ID: 1, NIC: nic, Eng: eng})
	nic.Receive(udpPkt(1))
	eng.RunUntil(sim.Millisecond)
	if len(wire) != 1 || wire[0].Dst != macA || wire[0].Src != macB {
		t.Fatalf("wire frames %+v, want one from %v to %v", wire, macB, macA)
	}
	if got := port.XSK(0).RxDelivered; got != 0 {
		t.Fatalf("socket received %d frames, want 0", got)
	}
}

func TestEMCAblation(t *testing.T) {
	// With the EMC off, every packet pays a classifier lookup; per-packet
	// cost must rise.
	cost := func(emcOn bool) float64 {
		bed := newAFXDPP2P(t, Options{}, afxdp.LockSpinBatched, ModePoll)
		bed.dp.ConfigureEMC(emcOn)
		bed.offer(200, 3000)
		bed.eng.RunUntil(20 * sim.Millisecond)
		return float64(bed.pmd.CPU.Busy(sim.User)-bed.pmd.Perf.Cycles[perf.StageIdle]) / float64(bed.recvd)
	}
	with, without := cost(true), cost(false)
	if without <= with {
		t.Fatalf("EMC off (%.0f ns/pkt) must cost more than on (%.0f)", without, with)
	}
}

func TestMeterDropsExcessTraffic(t *testing.T) {
	eng := sim.NewEngine(1)
	pl := ofproto.NewPipeline()
	pl.SetMeter(1, &ofproto.TokenBucket{RatePerSec: 1000, Burst: 5, PerPacket: true})
	mIn := flow.NewMaskBuilder().InPort().Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []ofproto.Action{ofproto.Meter(1), ofproto.Output(2)}})

	dp := NewDatapath(eng, pl, Options{})
	tapIn, tapOut := vdev.NewLink("in"), vdev.NewLink("out")
	inPort := NewLinkPort(1, "tap", tapIn, nil)
	dp.AddPort(inPort)
	dp.AddPort(NewLinkPort(2, "tap", tapOut, nil))
	pmd := dp.NewPMD(ModePoll, nil)
	dp.AssignRxqTo(pmd, inPort, 0)
	pmd.Start()

	// 50 packets in one instant: only the burst passes.
	for i := 0; i < 50; i++ {
		tapIn.FromPeer.Push(udpPkt(uint16(i)))
	}
	eng.RunUntil(sim.Millisecond)
	passed := tapOut.ToPeer.Len()
	if passed > 8 || passed < 4 {
		t.Fatalf("meter passed %d packets, want ~5", passed)
	}
	if dp.Drops == 0 {
		t.Fatal("meter drops not counted")
	}
}

func TestThousandFlowsColdPenalty(t *testing.T) {
	cost := func(flows int) float64 {
		bed := newAFXDPP2P(t, Options{}, afxdp.LockSpinBatched, ModePoll)
		n := 3000
		for i := 0; i < n; i++ {
			sport := uint16(1000 + i%flows)
			bed.eng.Schedule(sim.Time(i)*1500, func() { bed.nicA.Receive(udpPkt(sport)) })
		}
		bed.eng.RunUntil(30 * sim.Millisecond)
		if bed.recvd < n*9/10 {
			t.Fatalf("flows=%d received %d/%d", flows, bed.recvd, n)
		}
		return float64(bed.pmd.CPU.Busy(sim.User)-bed.pmd.Perf.Cycles[perf.StageIdle]) / float64(bed.recvd)
	}
	one, thousand := cost(1), cost(1000)
	if thousand <= one {
		t.Fatalf("1000 flows (%.0f ns/pkt) must cost more than 1 flow (%.0f)", thousand, one)
	}
}

func TestZeroCopyReducesSoftirqCost(t *testing.T) {
	perPkt := func(zc bool) float64 {
		eng := sim.NewEngine(1)
		nicA := nicsim.New(eng, nicsim.Config{Name: "ethA", Ifindex: 1, Queues: 1})
		nicB := nicsim.New(eng, nicsim.Config{Name: "ethB", Ifindex: 2, Queues: 1})
		recvd := 0
		nicB.ConnectWire(func(*packet.Packet) { recvd++ })
		if _, err := AttachDefaultProgram(nicA); err != nil {
			t.Fatal(err)
		}
		if _, err := AttachDefaultProgram(nicB); err != nil {
			t.Fatal(err)
		}
		dp := NewDatapath(eng, forwardPipeline(), Options{})
		portA := NewAFXDPPort(AFXDPPortConfig{ID: 1, NIC: nicA, Eng: eng, ZeroCopy: zc})
		dp.AddPort(portA)
		dp.AddPort(NewAFXDPPort(AFXDPPortConfig{ID: 2, NIC: nicB, Eng: eng, ZeroCopy: zc}))
		pmd := dp.NewPMD(ModePoll, nil)
		dp.AssignRxqTo(pmd, portA, 0)
		pmd.Start()
		for i := 0; i < 200; i++ {
			eng.Schedule(sim.Time(i)*2000, func() { nicA.Receive(udpPkt(3)) })
		}
		eng.RunUntil(5 * sim.Millisecond)
		if recvd < 190 {
			t.Fatalf("zc=%v received %d", zc, recvd)
		}
		var softirq sim.Time
		for _, c := range eng.CPUs() {
			softirq += c.Busy(sim.Softirq)
		}
		return float64(softirq) / float64(recvd)
	}
	copyMode, zcMode := perPkt(false), perPkt(true)
	if zcMode >= copyMode {
		t.Fatalf("zero-copy softirq cost %.0f must beat copy mode %.0f", zcMode, copyMode)
	}
}

// TestNegativeFlowOnUpcallError: a failed upcall installs a short-lived
// drop megaflow so follow-up packets of the failing flow drop in the fast
// path instead of re-upcalling; the entry self-expires after its TTL and
// the flow gets a fresh upcall.
func TestNegativeFlowOnUpcallError(t *testing.T) {
	eng := sim.NewEngine(1)
	dp := NewDatapath(eng, forwardPipeline(), Options{})
	dp.SetUpcall(func(flow.Key) (ofproto.Megaflow, error) {
		return ofproto.Megaflow{}, errors.New("slow path down")
	})

	send := func() {
		p := udpPkt(1000)
		p.InPort = 1
		dp.Execute(p)
	}
	send()
	if dp.Upcalls != 1 || dp.UpcallErrors != 1 || dp.Drops != 1 {
		t.Fatalf("after failed upcall: upcalls=%d errors=%d drops=%d, want 1/1/1",
			dp.Upcalls, dp.UpcallErrors, dp.Drops)
	}
	if dp.FlowCount() != 1 {
		t.Fatalf("negative flow not installed: flows=%d", dp.FlowCount())
	}

	// Follow-up packets drop against the negative flow without upcalling:
	// the first through the classifier (and into the EMC), the second from
	// the EMC.
	send()
	send()
	if dp.Upcalls != 1 || dp.Drops != 3 {
		t.Fatalf("negative flow not shielding: upcalls=%d drops=%d, want 1/3",
			dp.Upcalls, dp.Drops)
	}
	if st := dp.PMDs()[0].Perf; st.MegaflowHits != 1 || st.EMCHits != 1 {
		t.Fatalf("negative flow hits: megaflow=%d emc=%d, want 1/1",
			st.MegaflowHits, st.EMCHits)
	}

	// The entry self-expires (and the EMC is flushed with it), so the flow
	// re-upcalls.
	eng.RunUntil(eng.Now() + costmodel.NegativeFlowTTL + sim.Millisecond)
	if dp.FlowCount() != 0 {
		t.Fatalf("negative flow outlived its TTL: flows=%d", dp.FlowCount())
	}
	send()
	if dp.Upcalls != 2 {
		t.Fatalf("expired negative flow must re-upcall: upcalls=%d, want 2", dp.Upcalls)
	}
}

// TestInstallAllocs pins what one fresh megaflow costs the heap on its way
// through the datapath — miss, translation, classifier install, EMC insert
// — at the measured count: nothing. Its record is a slot of the
// classifier's slab (a chunk of 1,024 is allocated once per 1,024 installs)
// and every megaflow of a rule shares the rule's action list. Actions used
// to travel as an `any`, each translation used to copy its rule's list, and
// every megaflow used to be an object of its own.
func TestInstallAllocs(t *testing.T) {
	// Every source port is its own megaflow: the higher-priority rule
	// covers tp_src 0 only, so the others fall through to the forwarding
	// rule under a mask that has read tp_src.
	pl := forwardPipeline()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 2,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().TPSrc().Build()),
		Actions: []ofproto.Action{ofproto.Output(3)}})
	dp := NewDatapath(sim.NewEngine(1), pl, Options{})
	const runs = 200
	pkts := make([]*packet.Packet, 0, runs+2)
	for i := 0; i < cap(pkts); i++ {
		p := udpPkt(uint16(1000 + i))
		p.InPort = 1
		pkts = append(pkts, p)
	}
	next := 0
	install := func() {
		dp.Execute(pkts[next])
		next++
	}
	install() // the first install builds the PMD and the subtable
	if a := testing.AllocsPerRun(runs, install); a != 0 {
		t.Fatalf("a fresh megaflow install allocates %v objects, want 0", a)
	}
	if dp.FlowCount() != next || int(dp.Upcalls) != next {
		t.Fatalf("%d packets installed %d flows over %d upcalls", next, dp.FlowCount(), dp.Upcalls)
	}
}
