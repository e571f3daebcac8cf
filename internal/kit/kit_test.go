package kit

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
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
				t.Fatalf("%d of 3 frames reached the output hook\n%s", len(got), dp.PmdRxqShow())
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
// port factory and attached to a running PMD thread, stay under 1 MiB of
// live heap each: no umem page and no packet buffer exists before a frame
// needs it.
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
	if per >= 1<<20 {
		t.Fatalf("an idle afxdp interface holds %.1f MiB of live heap, want under 1 MiB", per/(1<<20))
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
