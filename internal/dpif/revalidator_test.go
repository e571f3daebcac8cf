package dpif

import (
	"runtime"
	"testing"

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

// TestMegaflowFootprint pins what a megaflow the revalidator tracks costs
// the heap: its 120-byte slab record, its 8-byte classifier slot and its
// queued idle deadline (a 40-byte ring slot), with the action list shared by
// every megaflow of its rule. 100k of them stay under 210 bytes each (about
// 192); a 144-byte object per entry with 16-byte slots and 48-byte ring
// slots put them at about 248, and a copied action list per megaflow and a
// wheel record plus a free-listed record per deadline at about 420.
func TestMegaflowFootprint(t *testing.T) {
	const flows = 100_000
	pl := ofproto.NewPipeline()
	// A never-matching rule on the address pair is probed by every lookup,
	// which pins each megaflow to its /32 source.
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
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 1; i <= flows; i++ {
		d.Execute(churnPacket(src(i), 2000))
	}
	after := heap()
	if n := len(d.FlowDump()); n != flows+1 || eng.Pending() != flows+1 || r.Installs != flows+1 {
		t.Fatalf("%d flows, %d deadlines queued, %d installs; want %d each", n, eng.Pending(), r.Installs, flows+1)
	}
	per := float64(after-before) / flows
	t.Logf("%.0f heap bytes per tracked megaflow", per)
	if per >= 210 {
		t.Fatalf("a tracked megaflow costs %.0f heap bytes, want under 210", per)
	}
	runtime.KeepAlive(d)
}
