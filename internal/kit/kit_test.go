package kit

import (
	"bytes"
	"testing"

	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
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
