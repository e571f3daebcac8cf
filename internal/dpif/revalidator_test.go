package dpif

import (
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
// cleared (later installs are not tracked), every pending deadline releases
// its record without touching the datapath, and stopping twice is harmless.
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

	// The engine still holds one deadline per tracked flow; each must see
	// the stopped state, recycle its record and leave the idle flows alone.
	eng.RunUntil(10 * sim.Millisecond)
	if r.Checks != 0 || r.Evicted != 0 {
		t.Errorf("deadlines ran after Stop: Checks = %d, Evicted = %d", r.Checks, r.Evicted)
	}
	if got := len(r.free); got != tracked {
		t.Errorf("released records = %d, want %d", got, tracked)
	}
	if got := len(d.FlowDump()); got != tracked+1 {
		t.Errorf("stopped revalidator changed the datapath: %d flows, want %d", got, tracked+1)
	}

	r.Stop() // idempotent
	if r.running {
		t.Error("running after second Stop")
	}
}
