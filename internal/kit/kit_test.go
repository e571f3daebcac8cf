package kit

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/netlinksim"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
	"ovsxdp/internal/vdev"
)

var ifaceTypes = []string{"afxdp", "dpdk", "tap", "vhostuser", "veth"}

func testFrame() []byte {
	return hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1000, 2000).PadTo(64).Build()
}

// pair opens a datapath of the given type running port 1 -> port 2, builds
// both interfaces with the factory and attaches them.
func pair(t *testing.T, dpType, ifType string, pmd bool) (*sim.Engine, dpif.Dpif, *Iface, *Iface) {
	t.Helper()
	eng := sim.NewEngine(1)
	dp, err := dpif.Open(dpType, dpif.Config{Eng: eng, Pipeline: LoopbackPipeline(Hop{1, 2})})
	if err != nil {
		t.Fatal(err)
	}
	if pmd {
		dp.(*dpif.Netdev).NewPMD(core.ModePoll).Start()
	}
	var ifaces [2]*Iface
	for n := range ifaces {
		i, err := NewIface(dp, ifType, ifType+string(rune('0'+n)), uint32(n+1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := Attach(dp, i.Port); err != nil {
			t.Fatal(err)
		}
		ifaces[n] = i
	}
	return eng, dp, ifaces[0], ifaces[1]
}

// TestIfaceForwards: for every interface type, a frame injected on the far
// side of port 1 is polled by the running PMD thread (Attach placed the
// rxq), crosses the switch and reaches port 2's output hook unchanged, and
// no ring on the way drops.
func TestIfaceForwards(t *testing.T) {
	for _, typ := range ifaceTypes {
		t.Run(typ, func(t *testing.T) {
			eng, dp, in, out := pair(t, "netdev", typ, true)
			var got [][]byte
			out.OnOutput(func(p *packet.Packet) { got = append(got, p.Data) })
			frame := testFrame()
			for n := 0; n < 3; n++ {
				in.Inject(packet.New(append([]byte(nil), frame...)))
			}
			eng.RunUntil(sim.Millisecond)
			if len(got) != 3 {
				t.Fatalf("%d of 3 frames reached the output hook\n%s", len(got), dp.(*dpif.Netdev).Datapath().PmdRxqShow())
			}
			for _, g := range got {
				if !bytes.Equal(g, frame) {
					t.Fatalf("frame changed in flight: % x", g)
				}
			}
			for _, i := range []*Iface{in, out} {
				drops := RingDrops(i.Port.(core.Port))
				if i.nic != nil {
					drops += i.nic.RxDropsTotal()
				} else {
					drops += i.link.Drops()
				}
				if drops != 0 {
					t.Errorf("%s dropped %d packets", i.Name(), drops)
				}
			}
			if st := dp.Stats(); st.Ports != 2 || st.Lost != 0 {
				t.Errorf("stats = %+v", st)
			}
		})
	}
}

// TestIfaceOnKernelProviders: the same type names attach to the kernel
// datapaths as transmit ports, and both Execute and Inject reach the hook.
func TestIfaceOnKernelProviders(t *testing.T) {
	for _, dpType := range []string{"netlink", "ebpf"} {
		for _, typ := range ifaceTypes {
			t.Run(dpType+"/"+typ, func(t *testing.T) {
				eng, dp, in, out := pair(t, dpType, typ, false)
				if _, ok := out.Port.(dpif.TxPort); !ok {
					t.Fatalf("port is a %T, want a dpif.TxPort", out.Port)
				}
				got := 0
				out.OnOutput(func(*packet.Packet) { got++ })
				p := packet.New(testFrame())
				p.InPort = 1
				dp.Execute(p)
				in.Inject(packet.New(testFrame()))
				eng.RunUntil(sim.Millisecond)
				if got != 2 {
					t.Fatalf("%d of 2 packets reached the output hook", got)
				}
			})
		}
	}
}

// TestAFXDPOversizeFrameIsDropped: a frame longer than a umem chunk is
// refused where it would enter the umem — the socket on receive, the port on
// transmit — and counted as a ring drop, never forwarded truncated. The
// frames after it forward untouched.
func TestAFXDPOversizeFrameIsDropped(t *testing.T) {
	big := hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1000, 2000).PayloadLen(3000 - 42).Build()
	if len(big) != 3000 {
		t.Fatalf("frame of %d bytes, want 3000", len(big))
	}
	for _, inType := range []string{"afxdp", "tap"} {
		t.Run(inType+"->afxdp", func(t *testing.T) {
			eng := sim.NewEngine(1)
			dp, err := dpif.Open("netdev", dpif.Config{Eng: eng, Pipeline: LoopbackPipeline(Hop{1, 2})})
			if err != nil {
				t.Fatal(err)
			}
			dp.(*dpif.Netdev).NewPMD(core.ModePoll).Start()
			in := Must(NewIface(dp, inType, "in", 1, 1))
			out := Must(NewIface(dp, "afxdp", "out", 2, 1))
			for _, i := range []*Iface{in, out} {
				if err := Attach(dp, i.Port); err != nil {
					t.Fatal(err)
				}
			}
			var got [][]byte
			out.OnOutput(func(p *packet.Packet) { got = append(got, p.Data) })
			in.Inject(packet.New(append([]byte(nil), big...)))
			in.Inject(packet.New(testFrame()))
			eng.RunUntil(sim.Millisecond)
			if len(got) != 1 || !bytes.Equal(got[0], testFrame()) {
				t.Fatalf("output got %d frames (lengths %v), want only the 64-byte one", len(got), lens(got))
			}
			dropper := out
			if inType == "afxdp" {
				dropper = in
			}
			if d := RingDrops(dropper.Port.(core.Port)); d != 1 {
				t.Fatalf("%s counted %d ring drops, want 1", dropper.Name(), d)
			}
		})
	}
}

func lens(frames [][]byte) []int {
	var n []int
	for _, f := range frames {
		n = append(n, len(f))
	}
	return n
}

// TestIdleAFXDPPortFootprint: an AF_XDP interface costs the memory its
// traffic touches. Thirty-two idle ones on one netdev datapath, built by the
// port factory and attached to a running PMD thread, stay under 64 KiB of
// live heap each (27 KiB measured on x86-64): no umem chunk byte, packet
// buffer or packet metadata exists before a frame needs it, and of the four
// rings only the fill ring's 1,024 posted descriptors are backed.
func TestIdleAFXDPPortFootprint(t *testing.T) {
	eng := sim.NewEngine(1)
	dp := Must(dpif.Open("netdev", dpif.Config{Eng: eng, Pipeline: LoopbackPipeline()}))
	dp.(*dpif.Netdev).NewPMD(core.ModePoll).Start()
	const ports = 32
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	ifaces := make([]*Iface, ports)
	for n := range ifaces {
		ifaces[n] = Must(NewIface(dp, "afxdp", fmt.Sprintf("xdp%d", n), uint32(n+1), 1))
		if err := Attach(dp, ifaces[n].Port); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Millisecond)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := float64(ms.HeapAlloc-before) / ports
	runtime.KeepAlive(ifaces)
	t.Logf("%d idle afxdp interfaces: %.0f KiB of live heap each", ports, per/1024)
	if per >= 64<<10 {
		t.Fatalf("an idle afxdp interface holds %.0f KiB of live heap, want under 64 KiB", per/1024)
	}
}

// TestAFXDPPortHoldsItsFrames: an AF_XDP port that has forwarded 100k
// 64-byte frames, receiving them or transmitting them, holds under 256 KiB
// of live heap. Its fill ring keeps 1,024 chunks posted and cycles through
// all of them, so each chunk it ever received into holds one frame's 64
// bytes, not its 2 KiB slot.
func TestAFXDPPortHoldsItsFrames(t *testing.T) {
	for _, dir := range []struct{ name, in, out string }{
		{"receiving", "afxdp", "tap"},
		{"transmitting", "tap", "afxdp"},
	} {
		t.Run(dir.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			dp := Must(dpif.Open("netdev", dpif.Config{Eng: eng, Pipeline: LoopbackPipeline(Hop{1, 2})}))
			dp.(*dpif.Netdev).NewPMD(core.ModePoll).Start()
			pool := packet.NewPool(64, 64, true)
			frame := testFrame()
			build := func(typ, name string, id uint32) *Iface {
				i := Must(NewIface(dp, typ, name, id, 1))
				if err := Attach(dp, i.Port); err != nil {
					t.Fatal(err)
				}
				return i
			}
			// The tap end and the datapath's one megaflow are in place
			// before the heap is read, so the growth is the AF_XDP port's.
			var in, out *Iface
			if dir.in == "tap" {
				in = build("tap", "in", 1)
			} else {
				out = build("tap", "out", 2)
			}
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.HeapAlloc
			if in == nil {
				in = build("afxdp", "in", 1)
			} else {
				out = build("afxdp", "out", 2)
			}
			forwarded := 0
			out.OnOutput(func(p *packet.Packet) { forwarded++; p.Release() })
			const frames, burst = 100_000, 32
			for sent := 0; sent < frames; sent += burst {
				for range burst {
					in.Inject(pool.GetCopy(frame))
				}
				eng.RunUntil(eng.Now() + 64*sim.Microsecond)
			}
			eng.RunUntil(eng.Now() + sim.Millisecond)
			if forwarded != frames {
				t.Fatalf("forwarded %d of %d frames", forwarded, frames)
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			held := float64(ms.HeapAlloc) - float64(before)
			runtime.KeepAlive(in)
			runtime.KeepAlive(out)
			t.Logf("an afxdp port %s %d 64-byte frames holds %.0f KiB of live heap", dir.name, frames, held/1024)
			if held >= 256<<10 {
				t.Fatalf("an afxdp port %s holds %.0f KiB of live heap, want under 256 KiB", dir.name, held/1024)
			}
		})
	}
}

// TestIdlePMDFootprint: a poll-mode thread costs the flows its caches
// hold. Thirty-two idle ones on one netdev datapath, the EMC on and the SMC
// off (the defaults), started and run for a millisecond, stay under 160
// KiB of live heap each: the EMC's probe side, and no cached key.
func TestIdlePMDFootprint(t *testing.T) {
	eng := sim.NewEngine(1)
	dp := Must(dpif.Open("netdev", dpif.Config{Eng: eng, Pipeline: LoopbackPipeline()})).(*dpif.Netdev)
	const pmds = 32
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	threads := make([]*core.PMD, pmds)
	for n := range threads {
		threads[n] = dp.NewPMD(core.ModePoll)
		threads[n].Start()
	}
	eng.RunUntil(sim.Millisecond)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := float64(ms.HeapAlloc-before) / pmds
	runtime.KeepAlive(threads)
	t.Logf("%d idle PMD threads: %.0f KiB of live heap each", pmds, per/1024)
	if per >= 160<<10 {
		t.Fatalf("an idle PMD thread holds %.0f KiB of live heap, want under 160 KiB", per/1024)
	}
}

func TestUnknownIfaceType(t *testing.T) {
	for _, dpType := range dpif.Types() {
		_, dp, _, _ := pair(t, dpType, "tap", false)
		if i, err := NewIface(dp, "quantum", "q0", 3, 1); err == nil {
			t.Errorf("%s: NewIface built a %q interface: %+v", dpType, "quantum", i)
		}
		if n := dp.Stats().Ports; n != 2 {
			t.Errorf("%s: %d ports attached, want the 2 from before", dpType, n)
		}
	}
}

// TestRedirectRxRoutesOneMAC: a veth host end running path C's program with
// one route hands frames to that MAC to deliver, charges the XDP stage to
// its softirq CPU, and releases every other frame.
func TestRedirectRxRoutesOneMAC(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := eng.NewCPU("softirq")
	veth := vdev.NewLink("veth0")
	var got []*packet.Packet
	RedirectRx(eng, cpu, veth.FromPeer, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}, 2,
		func(p *packet.Packet) { got = append(got, p) })
	pool := packet.NewPool(2, 64, true)
	veth.FromPeer.Push(pool.GetCopy(testFrame()))
	other := pool.GetCopy(testFrame())
	other.Data[5] = 9 // destination 02:bb:00:00:00:09 has no route
	veth.FromPeer.Push(other)
	eng.Run()
	if len(got) != 1 || got[0].Data[5] != 1 {
		t.Fatalf("delivered %d frames, want the one to the routed MAC", len(got))
	}
	if pool.Available() != 1 {
		t.Fatalf("%d of 2 frames back in the pool, want the unrouted one", pool.Available())
	}
	if cpu.Busy(sim.Softirq) == 0 {
		t.Fatal("the XDP stage must be charged to the softirq CPU")
	}
}

// TestKernelGeneveRoundTrip: two kernel datapaths, each with its own
// encapper, wired NIC to NIC. A frame from host 1's VM is committed to
// conntrack, pushed into Geneve by host 1's tnl_push arm, popped by host 2's
// own tnl_pop arm (a recirculation) and leaves on host 2's VM port byte for
// byte as host 1's VM sent it — with none of host 1's recirculation or
// conntrack state carried across the wire.
func TestKernelGeneveRoundTrip(t *testing.T) {
	const uplink, vm, tnl = 1, 3, 100
	vteps := [2]hdr.IP4{hdr.MakeIP4(172, 16, 0, 1), hdr.MakeIP4(172, 16, 0, 2)}
	eng := sim.NewEngine(1)
	var nics [2]*nicsim.NIC
	var kdps [2]*dpif.Netlink
	var got [][]byte
	for h := range nics {
		local, remote := vteps[h], vteps[1-h]
		nics[h] = nicsim.New(eng, nicsim.Config{Name: fmt.Sprintf("uplink%d", h), Ifindex: uint32(h + 1),
			Queues: 1, Offloads: OffloadsFor("kernel")})

		pl := ofproto.NewPipeline()
		mIn := flow.NewMaskBuilder().InPort().Build()
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 200,
			Match: ofproto.NewMatch(flow.Fields{InPort: uplink, EthType: hdr.EtherTypeIPv4,
				IPProto: hdr.IPProtoUDP, TPDst: hdr.GenevePort},
				flow.NewMaskBuilder().InPort().EthType().IPProto().TPDst().Build()),
			Actions: []ofproto.Action{ofproto.TunnelPop(tnl)}})
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 100,
			Match:   ofproto.NewMatch(flow.Fields{InPort: tnl}, mIn),
			Actions: []ofproto.Action{ofproto.Output(vm)}})
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 100,
			Match:   ofproto.NewMatch(flow.Fields{InPort: vm}, mIn),
			Actions: []ofproto.Action{ofproto.CT(7, true, 11)}})
		pl.AddRule(&ofproto.Rule{TableID: 11, Priority: 1,
			Match: ofproto.NewMatch(flow.Fields{}, flow.NewMaskBuilder().Build()),
			Actions: []ofproto.Action{
				ofproto.SetTunnel(tunnel.Config{Kind: tunnel.Geneve, LocalIP: local, RemoteIP: remote, VNI: 5000}),
				ofproto.Output(uplink)}})

		k := netlinksim.NewKernel()
		idx, _ := k.AddLink("uplink", "mlx5_core", hdr.MAC{0x02, 0xee, 0, 0, 0, byte(h + 1)}, 1600)
		k.AddAddr("uplink", local, 16)
		k.AddNeigh(netlinksim.Neigh{IP: remote, MAC: hdr.MAC{0x02, 0xee, 0, 0, 0, byte(2 - h)}, LinkIndex: idx})

		kdps[h] = OpenKernel("netlink", dpif.Config{Eng: eng, Pipeline: pl},
			dpif.TxPort{PortID: uplink, PortName: nics[h].Name, Deliver: nics[h].Transmit},
			dpif.TxPort{PortID: vm, PortName: "vm", Deliver: func(p *packet.Packet) {
				if h == 1 {
					got = append(got, p.Data)
				}
			}})
		kdps[h].Kernel().Encapper = tunnel.NewEncapper(netlinksim.NewCache(k))
		SoftirqRx(eng, eng.NewCPU(fmt.Sprintf("ksoftirqd%d", h)), nics[h].Queue(0), uplink, kdps[h].Kernel().Process)
	}
	nics[0].ConnectWire(func(p *packet.Packet) { nics[1].Receive(p) })
	nics[1].ConnectWire(func(p *packet.Packet) { nics[0].Receive(p) })

	frame := testFrame()
	p := packet.New(append([]byte(nil), frame...))
	p.InPort = vm
	kdps[0].Execute(p)
	eng.RunUntil(sim.Millisecond)

	if len(got) != 1 || !bytes.Equal(got[0], frame) {
		t.Fatalf("host 2's VM port got %d frames (want host 1's one, unchanged); host 2 stats %+v", len(got), kdps[1].Stats())
	}
	if r := kdps[1].Kernel().Recirculations; r == 0 {
		t.Fatal("host 2 did not pop the frame through its own tnl_pop arm")
	}
}
