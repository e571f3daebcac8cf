package dpif

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"ovsxdp/internal/core"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

func revalPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match: ofproto.NewMatch(flow.Fields{InPort: 1},
			flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	return pl
}

func revalPacket() *packet.Packet {
	frame := hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1000, 2000).PadTo(64).Build()
	p := packet.New(frame)
	p.InPort = 1
	return p
}

func revalDpif(t *testing.T, name string) (*sim.Engine, Dpif) {
	t.Helper()
	eng := sim.NewEngine(1)
	d, err := Open(name, Config{Eng: eng, Pipeline: revalPipeline()})
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	if err := d.PortAdd(TxPort{PortID: 2, PortName: "p1",
		Deliver: func(*packet.Packet) {}}); err != nil {
		t.Fatalf("PortAdd: %v", err)
	}
	return eng, d
}

// TestWheelRevalidatorTracksEachPMD: a deadline names its classifier by
// index into the revalidator's list, so when two PMD classifiers hold the
// same megaflow under the same ref, the idle copy is evicted and the one
// traffic hits is kept.
func TestWheelRevalidatorTracksEachPMD(t *testing.T) {
	eng, d := revalDpif(t, "netdev")
	nd := d.(*Netdev)
	nd.NewPMD(core.ModeNonPMD) // Execute runs on this one
	nd.NewPMD(core.ModeNonPMD)
	d.FlowPut((&flow.Fields{InPort: 1}).Pack(), flow.NewMaskBuilder().InPort().Build(),
		[]ofproto.DPAction{{Type: ofproto.DPOutput, Port: 2}})
	flows := d.FlowDump()
	if len(flows) != 2 || flows[0].Table == flows[1].Table || flows[0].Ref != flows[1].Ref {
		t.Fatalf("setup: want one megaflow under one ref in each of two classifiers, got %v", flows)
	}
	r := StartWheelRevalidator(eng, d, 2*sim.Millisecond)
	for now := sim.Time(0); now < 10*sim.Millisecond; now += sim.Millisecond / 2 {
		eng.RunUntil(now)
		d.Execute(revalPacket())
	}
	pmds := nd.Datapath().PMDs()
	if pmds[0].Classifier().Len() != 1 || pmds[1].Classifier().Len() != 0 || r.Evicted != 1 {
		t.Fatalf("flows left: active PMD %d, idle PMD %d (evicted %d); want 1, 0 (1)",
			pmds[0].Classifier().Len(), pmds[1].Classifier().Len(), r.Evicted)
	}
}

// TestWheelRevalidatorStop covers the Stop contract: the flow hook is
// cleared (later installs are not tracked), every pending deadline leaves
// the queue without touching the datapath, and stopping twice is harmless.
func TestWheelRevalidatorStop(t *testing.T) {
	eng, d := revalDpif(t, "netlink")
	d.SetUpcall(churnUpcall(2))
	const tracked = 3
	d.Execute(churnPacket(hdr.MakeIP4(10, 0, 0, 1), 2000)) // found by the initial dump
	r := StartWheelRevalidator(eng, d, 2*sim.Millisecond)
	for i := 1; i < tracked; i++ {
		d.Execute(churnPacket(hdr.MakeIP4(10, 0, byte(i), 1), 2000)) // found by the hook
	}
	if r.Installs != tracked {
		t.Fatalf("Installs = %d, want %d", r.Installs, tracked)
	}

	r.Stop()
	if r.running {
		t.Error("running after Stop")
	}
	d.Execute(churnPacket(hdr.MakeIP4(10, 0, 9, 1), 2000))
	if r.Installs != tracked {
		t.Errorf("install after Stop was tracked: Installs = %d (flow hook not cleared)", r.Installs)
	}

	// The queue still holds one deadline per tracked flow; each must see
	// the stopped state, leave the queue and leave the idle flows alone.
	if got := eng.Pending(); got != tracked {
		t.Errorf("pending events = %d, want the %d queued deadlines", got, tracked)
	}
	eng.RunUntil(10 * sim.Millisecond)
	if r.Checks != 0 || r.Evicted != 0 {
		t.Errorf("deadlines ran after Stop: Checks = %d, Evicted = %d", r.Checks, r.Evicted)
	}
	if got := eng.Pending(); got != 0 {
		t.Errorf("deadlines left queued = %d, want 0", got)
	}
	if got := len(d.FlowDump()); got != tracked+1 {
		t.Errorf("stopped revalidator changed the datapath: %d flows, want %d", got, tracked+1)
	}

	r.Stop() // idempotent
	if r.running {
		t.Error("running after second Stop")
	}
}

// trackMegaflows installs 100k megaflows through netdev under the wheel
// revalidator, each pinned to its /32 source by a never-matching rule on the
// address pair that every lookup probes, and returns how much heap reads
// (after a collection) grew across the installs, per megaflow.
func trackMegaflows(t *testing.T, heap func() uint64) float64 {
	const flows = 100_000
	pl := ofproto.NewPipeline()
	pin := flow.NewMaskBuilder().InPort().EthType().IPProto().IP4Src(32).IP4Dst(32).Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 2,
		Match: ofproto.NewMatch(flow.Fields{InPort: 1, EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoUDP,
			IP4Src: hdr.MakeIP4(192, 0, 2, 1), IP4Dst: hdr.MakeIP4(192, 0, 2, 2)}, pin),
		Actions: []ofproto.Action{ofproto.Drop()}})
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	eng := sim.NewEngine(1)
	d, err := Open("netdev", Config{Eng: eng, Pipeline: pl})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PortAdd(TxPort{PortID: 2, PortName: "p1", Deliver: func(*packet.Packet) {}}); err != nil {
		t.Fatal(err)
	}
	r := StartWheelRevalidator(eng, d, sim.Second)
	src := func(i int) hdr.IP4 { return hdr.MakeIP4(10, byte(i>>16), byte(i>>8), byte(i)) }
	d.Execute(churnPacket(src(0), 2000)) // builds the thread, its caches and the subtable
	runtime.GC()
	before := heap()
	for i := 1; i <= flows; i++ {
		d.Execute(churnPacket(src(i), 2000))
	}
	runtime.GC()
	after := heap()
	if n := len(d.FlowDump()); n != flows+1 || eng.Pending() != flows+1 || r.Installs != flows+1 {
		t.Fatalf("%d flows, %d deadlines queued, %d installs; want %d each", n, eng.Pending(), r.Installs, flows+1)
	}
	runtime.KeepAlive(d)
	return (float64(after) - float64(before)) / flows
}

// TestMegaflowFootprint pins what a megaflow the revalidator tracks costs
// the heap: its 16-byte header and the 32 bytes of key words its mask
// covers (4 of 12) in its subtable, its 8-byte classifier slot and its
// queued idle deadline (a 32-byte ring slot), with the action list shared by
// every megaflow of its rule. 100k of them stay under 128 bytes each (about
// 119); a 32-byte header plus a 12-byte directory entry naming it put them
// at about 147, a 120-byte record holding the full key and 40-byte ring
// slots at about 192, and a 144-byte object per entry with 16-byte slots and
// 48-byte ring slots at about 248.
func TestMegaflowFootprint(t *testing.T) {
	per := trackMegaflows(t, func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	})
	t.Logf("%.0f heap bytes per tracked megaflow", per)
	if per >= 128 {
		t.Fatalf("a tracked megaflow costs %.0f heap bytes, want under 128", per)
	}
}

// TestTrackedMegaflowsAreNoscan: 100k tracked megaflows add almost nothing
// the collector must scan. The classifier's records and the revalidator's
// deadline ring hold no pointer: a deadline names its classifier by index.
func TestTrackedMegaflowsAreNoscan(t *testing.T) {
	sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	per := trackMegaflows(t, func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	})
	t.Logf("%.0f KB of scannable heap for 100k tracked megaflows", per*100_000/1024)
	if per*100_000 >= 64<<10 {
		t.Fatalf("100k tracked megaflows add %.0f KB of scannable heap, want < 64 KB", per*100_000/1024)
	}
}
