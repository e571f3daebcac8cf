package kernelsim

import (
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/vdev"
)

var (
	macA = hdr.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = hdr.MAC{0x02, 0, 0, 0, 0, 0x0b}
)

func udpPkt(sport uint16) *packet.Packet {
	p := packet.New(hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(sport, 2000).PayloadLen(18).PadTo(64).Build())
	p.InPort = 1
	return p
}

func forwardPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	m := flow.NewMaskBuilder().InPort().Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, m),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	return pl
}

func TestDatapathMissUpcallThenHit(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	dp := NewDatapath(eng, FlavorModule, forwardPipeline())
	var out []*packet.Packet
	dp.Outputs[2] = func(p *packet.Packet) { out = append(out, p) }

	dp.Process(cpu, udpPkt(1))
	if dp.Upcalls != 1 || dp.Perf.MegaflowHits != 0 {
		t.Fatalf("first packet: upcalls=%d hits=%d", dp.Upcalls, dp.Perf.MegaflowHits)
	}
	if len(out) != 1 {
		t.Fatal("packet not forwarded")
	}
	// Different flow, same decision path: megaflow wildcarding makes it
	// a hit (the kernel module supports megaflows).
	dp.Process(cpu, udpPkt(2))
	if dp.Perf.MegaflowHits != 1 || dp.Upcalls != 1 {
		t.Fatalf("second packet: hits=%d upcalls=%d", dp.Perf.MegaflowHits, dp.Upcalls)
	}
	if dp.FlowCount() != 1 {
		t.Fatalf("flows = %d", dp.FlowCount())
	}
	// Upcall cost must land in System, fast path in Softirq.
	if cpu.Busy(sim.System) < costmodel.UpcallCost {
		t.Fatal("upcall must charge system time")
	}
	if cpu.Busy(sim.Softirq) == 0 {
		t.Fatal("fast path must charge softirq time")
	}
}

func TestEBPFFlavorExactMatchOnly(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	dp := NewDatapath(eng, FlavorEBPF, forwardPipeline())
	dp.Outputs[2] = func(*packet.Packet) {}

	dp.Process(cpu, udpPkt(1))
	dp.Process(cpu, udpPkt(2)) // different 5-tuple
	if dp.Upcalls != 2 {
		t.Fatalf("eBPF flavor without megaflows must upcall per exact flow: %d", dp.Upcalls)
	}

	// The kernel-module flavor wildcards, so the same two packets cost
	// one upcall (checked in the previous test).
}

func TestEBPFFlavorSlowerThanModule(t *testing.T) {
	run := func(flavor Flavor) sim.Time {
		eng := sim.NewEngine(1)
		cpu := eng.NewCPU("softirq0")
		dp := NewDatapath(eng, flavor, forwardPipeline())
		dp.Outputs[2] = func(*packet.Packet) {}
		// Warm the flow table, then measure the fast path only.
		dp.Process(cpu, udpPkt(1))
		before := cpu.Busy(sim.Softirq)
		for i := 0; i < 100; i++ {
			dp.Process(cpu, udpPkt(1))
		}
		return cpu.Busy(sim.Softirq) - before
	}
	mod := run(FlavorModule)
	ebpf := run(FlavorEBPF)
	ratio := float64(ebpf) / float64(mod)
	// Figure 2: the sandbox makes eBPF 10-20% slower.
	if ratio < 1.08 || ratio > 1.25 {
		t.Fatalf("eBPF/module cost ratio = %.3f, want ~1.10-1.20", ratio)
	}
}

func TestDatapathDropOnNoRule(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	dp := NewDatapath(eng, FlavorModule, ofproto.NewPipeline())
	dp.Process(cpu, udpPkt(1))
	if dp.Drops != 1 {
		t.Fatalf("drops = %d", dp.Drops)
	}
}

func TestDatapathCTRecirculation(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	pl := ofproto.NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	mCt := flow.NewMaskBuilder().CtState(0xff).Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []ofproto.Action{ofproto.CT(5, true, 10)}})
	pl.AddRule(&ofproto.Rule{TableID: 10, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{CtState: 0x03}, mCt), // trk|new
		Actions: []ofproto.Action{ofproto.Output(2)}})
	dp := NewDatapath(eng, FlavorModule, pl)
	var out []*packet.Packet
	dp.Outputs[2] = func(p *packet.Packet) { out = append(out, p) }

	p := packet.New(hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		TCPH(1000, 80, 1, 0, hdr.TCPSyn).PadTo(64).Build())
	p.InPort = 1
	dp.Process(cpu, p)
	if len(out) != 1 {
		t.Fatalf("ct+recirc did not forward: drops=%d", dp.Drops)
	}
	if out[0].CtState&packet.CtNew == 0 || out[0].CtZone != 5 {
		t.Fatalf("ct metadata = %s zone=%d", out[0].CtState, out[0].CtZone)
	}
	if dp.Ct.ZoneCount(5) != 1 {
		t.Fatal("connection not committed")
	}
	// Two datapath passes: two flows installed (pre- and post-recirc).
	if dp.FlowCount() != 2 {
		t.Fatalf("flows = %d, want 2", dp.FlowCount())
	}
}

func TestNAPIActorDrainsAndRearms(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	nic := nicsim.New(eng, nicsim.Config{Name: "eth0", Queues: 1})

	var handled int
	actor := &NAPIActor{
		Eng: eng, CPU: cpu, Src: nic.Queue(0),
		Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
			handled += len(pkts)
			cpu.Consume(sim.Softirq, sim.Time(len(pkts))*100)
		},
	}
	actor.Start()

	for i := 0; i < 150; i++ {
		nic.Receive(udpPkt(uint16(i)))
	}
	eng.Run()
	if handled != 150 {
		t.Fatalf("handled %d", handled)
	}
	if actor.Polls < 3 { // 150 packets / 64 budget
		t.Fatalf("polls = %d, want >= 3", actor.Polls)
	}

	// After going idle, a new packet wakes it again via the interrupt.
	nic.Receive(udpPkt(9999))
	eng.Run()
	if handled != 151 {
		t.Fatal("actor did not re-arm after idle")
	}
}

func TestNAPIActorOnVdevQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	q := vdev.NewQueue("tap", 0)
	handled := 0
	actor := &NAPIActor{
		Eng: eng, CPU: cpu, Src: q,
		Handler: func(cpu *sim.CPU, pkts []*packet.Packet) { handled += len(pkts) },
	}
	actor.Start()
	q.Push(udpPkt(1))
	eng.Run()
	if handled != 1 {
		t.Fatalf("handled = %d", handled)
	}
}

// TestNAPIActorStopResumeBothQueues: a hardware queue and a virtual device
// ring are poll sources as they are. On either, a parked actor leaves
// arrivals queued and Resume picks the whole backlog up and re-arms.
func TestNAPIActorStopResumeBothQueues(t *testing.T) {
	sources := map[string]func(*sim.Engine) (PollSource, func(*packet.Packet) bool){
		"nicsim": func(eng *sim.Engine) (PollSource, func(*packet.Packet) bool) {
			nic := nicsim.New(eng, nicsim.Config{Name: "eth0", Queues: 1})
			return nic.Queue(0), nic.Receive
		},
		"vdev": func(eng *sim.Engine) (PollSource, func(*packet.Packet) bool) {
			q := vdev.NewQueue("tap", 0)
			return q, q.Push
		},
	}
	for name, mk := range sources {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			src, arrive := mk(eng)
			handled := 0
			actor := &NAPIActor{Eng: eng, CPU: eng.NewCPU("softirq0"), Src: src,
				Handler: func(_ *sim.CPU, pkts []*packet.Packet) { handled += len(pkts) }}
			actor.Start()
			arrive(udpPkt(1))
			eng.Run()
			if handled != 1 {
				t.Fatalf("handled %d of 1 before the stop", handled)
			}
			actor.Stop()
			for i := 0; i < 100; i++ {
				arrive(udpPkt(uint16(i)))
			}
			eng.Run()
			if handled != 1 {
				t.Fatalf("a parked actor handled %d packets", handled-1)
			}
			actor.Resume()
			eng.Run()
			if handled != 101 {
				t.Fatalf("handled %d of 101 after Resume", handled)
			}
			arrive(udpPkt(7))
			eng.Run()
			if handled != 102 {
				t.Fatal("actor did not re-arm after draining the backlog")
			}
		})
	}
}

func TestSocketCostsScaleWithSize(t *testing.T) {
	var sc SocketCosts
	if sc.SendCost(1500) <= sc.SendCost(64) {
		t.Fatal("send cost must grow with bytes")
	}
	if sc.RecvCost(64) <= 0 || sc.SoftirqRxCost(64) <= 0 {
		t.Fatal("costs must be positive")
	}
}

func TestContentionScalesKernelCost(t *testing.T) {
	perPkt := func(n int) sim.Time {
		eng := sim.NewEngine(1)
		cpu := eng.NewCPU("softirq0")
		dp := NewDatapath(eng, FlavorModule, forwardPipeline())
		dp.ActiveCPUs = func() int { return n }
		dp.Outputs[2] = func(*packet.Packet) {}
		dp.Process(cpu, udpPkt(1)) // warm
		before := cpu.Busy(sim.Softirq)
		dp.Process(cpu, udpPkt(1))
		return cpu.Busy(sim.Softirq) - before
	}
	one, twelve := perPkt(1), perPkt(12)
	ratio := float64(twelve) / float64(one)
	if ratio < 3.0 || ratio > 4.5 {
		t.Fatalf("12-CPU contention ratio = %.2f, want ~3.75", ratio)
	}
}

func TestDatapathHeaderActions(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	pl := ofproto.NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match: ofproto.NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []ofproto.Action{
			ofproto.PushVLAN(100, 2),
			ofproto.SetEthDst(hdr.MAC{9, 9, 9, 9, 9, 9}),
			ofproto.SetEthSrc(hdr.MAC{8, 8, 8, 8, 8, 8}),
			ofproto.Output(2),
		}})
	dp := NewDatapath(eng, FlavorModule, pl)
	var out *packet.Packet
	dp.Outputs[2] = func(p *packet.Packet) { out = p }
	dp.Process(cpu, udpPkt(1))
	if out == nil {
		t.Fatal("packet not forwarded")
	}
	eth, err := hdr.ParseEthernet(out.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !eth.HasVLAN || eth.VLANID != 100 {
		t.Fatalf("vlan not pushed: %+v", eth)
	}
	if eth.Dst != (hdr.MAC{9, 9, 9, 9, 9, 9}) || eth.Src != (hdr.MAC{8, 8, 8, 8, 8, 8}) {
		t.Fatalf("mac rewrite failed: %s %s", eth.Src, eth.Dst)
	}
}

func TestDatapathDecTTLAndPopVLAN(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	pl := ofproto.NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match: ofproto.NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []ofproto.Action{
			ofproto.PopVLAN(), ofproto.DecTTL(), ofproto.Output(2)}})
	dp := NewDatapath(eng, FlavorModule, pl)
	var out *packet.Packet
	dp.Outputs[2] = func(p *packet.Packet) { out = p }

	frame := hdr.NewBuilder().Eth(macA, macB).VLAN(7, 0).
		IPv4H(hdr.MakeIP4(1, 1, 1, 1), hdr.MakeIP4(2, 2, 2, 2), 64).
		UDPH(1, 2).PayloadLen(8).Build()
	p := packet.New(frame)
	p.InPort = 1
	dp.Process(cpu, p)
	if out == nil {
		t.Fatal("not forwarded")
	}
	eth, _ := hdr.ParseEthernet(out.Data)
	if eth.HasVLAN {
		t.Fatal("vlan not popped")
	}
	ip, _ := hdr.ParseIPv4(out.Data[eth.HeaderLen:])
	if ip.TTL != 63 {
		t.Fatalf("ttl = %d, want 63", ip.TTL)
	}
	if !hdr.VerifyIPv4Checksum(out.Data[eth.HeaderLen:]) {
		t.Fatal("dec_ttl must fix the IP checksum")
	}
}

func TestDatapathMeterDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	pl := ofproto.NewPipeline()
	pl.SetMeter(1, &ofproto.TokenBucket{RatePerSec: 10, Burst: 2, PerPacket: true})
	mIn := flow.NewMaskBuilder().InPort().Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []ofproto.Action{ofproto.Meter(1), ofproto.Output(2)}})
	dp := NewDatapath(eng, FlavorModule, pl)
	forwarded := 0
	dp.Outputs[2] = func(*packet.Packet) { forwarded++ }
	for i := 0; i < 10; i++ {
		dp.Process(cpu, udpPkt(uint16(i)))
	}
	if forwarded != 2 {
		t.Fatalf("meter passed %d, want burst of 2", forwarded)
	}
	if dp.Drops != 8 {
		t.Fatalf("drops = %d", dp.Drops)
	}
}

func TestDatapathMissingOutputPortDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	dp := NewDatapath(eng, FlavorModule, forwardPipeline()) // no Outputs[2]
	dp.Process(cpu, udpPkt(1))
	if dp.Drops != 1 {
		t.Fatalf("drops = %d", dp.Drops)
	}
}

func TestDatapathRecircDepthBound(t *testing.T) {
	// A ct rule whose continuation loops back into another ct: recursion
	// must terminate at the depth bound, not hang.
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	pl := ofproto.NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	mAny := flow.Mask{}
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []ofproto.Action{ofproto.CT(1, false, 10)}})
	pl.AddRule(&ofproto.Rule{TableID: 10, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{}, mAny),
		Actions: []ofproto.Action{ofproto.CT(2, false, 10)}}) // loops to itself
	dp := NewDatapath(eng, FlavorEBPF, pl)
	p := packet.New(hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(1, 1, 1, 1), hdr.MakeIP4(2, 2, 2, 2), 64).
		TCPH(1, 2, 0, 0, hdr.TCPSyn).PadTo(64).Build())
	p.InPort = 1
	dp.Process(cpu, p) // must return
	if dp.Drops != 1 {
		t.Fatalf("looping recirculation must drop, drops=%d", dp.Drops)
	}
}

func TestFlushFlowsForcesReUpcall(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	dp := NewDatapath(eng, FlavorModule, forwardPipeline())
	dp.Outputs[2] = func(*packet.Packet) {}
	dp.Process(cpu, udpPkt(1))
	dp.FlushFlows()
	dp.Process(cpu, udpPkt(1))
	if dp.Upcalls != 2 {
		t.Fatalf("upcalls = %d, want 2 after flush", dp.Upcalls)
	}
}

// TestMalformedDrops: frames the flow extractor rejects are counted in
// their own drop class — never upcalled, never mixed with policy drops.
func TestMalformedDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq0")
	dp := NewDatapath(eng, FlavorModule, forwardPipeline())
	dp.Outputs[2] = func(*packet.Packet) {}

	// Truncated IPv4: the Ethernet header announces IPv4 but only 4 bytes
	// of L3 follow.
	bad := packet.New(make([]byte, hdr.EthernetSize+4))
	bad.Data[12], bad.Data[13] = 0x08, 0x00
	bad.InPort = 1
	dp.Process(cpu, bad)
	if dp.MalformedDrops != 1 || dp.Upcalls != 0 || dp.Drops != 0 {
		t.Fatalf("malformed=%d upcalls=%d drops=%d, want 1/0/0",
			dp.MalformedDrops, dp.Upcalls, dp.Drops)
	}

	// A valid frame still takes the normal upcall path.
	dp.Process(cpu, udpPkt(1))
	if dp.Upcalls != 1 || dp.MalformedDrops != 1 {
		t.Fatalf("valid frame after malformed: upcalls=%d malformed=%d, want 1/1",
			dp.Upcalls, dp.MalformedDrops)
	}
}
