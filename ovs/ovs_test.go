package ovs

import (
	"testing"
	"time"

	"ovsxdp/internal/packet/hdr"
)

var (
	macA = hdr.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = hdr.MAC{0x02, 0, 0, 0, 0, 0x0b}
)

func udpFrame(dport uint16) []byte {
	return hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1234, dport).PayloadLen(18).PadTo(64).Build()
}

func TestSwitchForwardsBetweenAFXDPPorts(t *testing.T) {
	sw := New()
	br := sw.AddBridge("br0")
	p1, err := br.AddAFXDPPort("eth0", 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := br.AddAFXDPPort("eth1", 1)
	if err != nil {
		t.Fatal(err)
	}
	br.MustAddFlow("in_port=" + p1.IDString() + ",actions=output:" + p2.IDString())

	var got [][]byte
	p2.OnOutput(func(frame []byte) { got = append(got, append([]byte(nil), frame...)) })

	for i := 0; i < 10; i++ {
		p1.Inject(udpFrame(uint16(1000 + i)))
	}
	sw.Run(5 * time.Millisecond)

	if len(got) != 10 {
		t.Fatalf("forwarded %d/10 frames", len(got))
	}
	st := sw.Stats()
	if st.Processed < 10 || st.Upcalls == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if sw.Now() != 5*time.Millisecond {
		t.Fatalf("clock = %v", sw.Now())
	}
	// CPU report has user (PMD) and softirq (XDP) time.
	rep := sw.CPUReport()
	if rep["user"] <= 0 || rep["softirq"] <= 0 {
		t.Fatalf("cpu report = %v", rep)
	}
}

func TestSwitchDropsUnmatchedTraffic(t *testing.T) {
	sw := New()
	br := sw.AddBridge("br0")
	p1, _ := br.AddAFXDPPort("eth0", 1)
	// No flows installed.
	p1.Inject(udpFrame(1))
	sw.Run(2 * time.Millisecond)
	if sw.Stats().Drops != 1 {
		t.Fatalf("drops = %d, want 1", sw.Stats().Drops)
	}
}

func TestSwitchVhostAndTapPorts(t *testing.T) {
	sw := New()
	br := sw.AddBridge("br0")
	vh, err := br.AddVhostUserPort("vhost0")
	if err != nil {
		t.Fatal(err)
	}
	tap, err := br.AddTapPort("tap0")
	if err != nil {
		t.Fatal(err)
	}
	br.MustAddFlow("in_port=" + vh.IDString() + ",actions=output:" + tap.IDString())
	br.MustAddFlow("in_port=" + tap.IDString() + ",actions=output:" + vh.IDString())

	gotTap, gotVh := 0, 0
	tap.OnOutput(func([]byte) { gotTap++ })
	vh.OnOutput(func([]byte) { gotVh++ })

	vh.Inject(udpFrame(1))
	tap.Inject(udpFrame(2))
	sw.Run(2 * time.Millisecond)
	if gotTap != 1 || gotVh != 1 {
		t.Fatalf("tap=%d vhost=%d", gotTap, gotVh)
	}
}

func TestSwitchConntrackPipeline(t *testing.T) {
	sw := New()
	br := sw.AddBridge("br0")
	p1, _ := br.AddAFXDPPort("eth0", 1)
	p2, _ := br.AddAFXDPPort("eth1", 1)
	br.MustAddFlow("table=0,in_port=" + p1.IDString() + ",ip,actions=ct(commit,zone=3,table=10)")
	br.MustAddFlow("table=10,priority=100,ct_state=+trk+est,actions=output:" + p2.IDString())
	br.MustAddFlow("table=10,priority=90,ct_state=+trk+new,actions=output:" + p2.IDString())

	got := 0
	p2.OnOutput(func([]byte) { got++ })
	tcp := hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		TCPH(1000, 80, 1, 0, hdr.TCPSyn).PadTo(64).Build()
	p1.Inject(tcp)
	sw.Run(2 * time.Millisecond)
	if got != 1 {
		t.Fatalf("ct pipeline forwarded %d", got)
	}
	if sw.Stats().Recirculations != 1 {
		t.Fatalf("recirculations = %d", sw.Stats().Recirculations)
	}
}

func TestSwitchDPDKPortWorksButUnbindsKernel(t *testing.T) {
	sw := New()
	br := sw.AddBridge("br0")
	p1, err := br.AddDPDKPort("dpdk0", 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := br.AddDPDKPort("dpdk1", 1)
	br.MustAddFlow("in_port=" + p1.IDString() + ",actions=output:" + p2.IDString())
	got := 0
	p2.OnOutput(func([]byte) { got++ })
	p1.Inject(udpFrame(1))
	sw.Run(2 * time.Millisecond)
	if got != 1 {
		t.Fatal("dpdk forwarding failed")
	}
	// The kernel lost sight of the device (Table 1).
	if _, err := sw.kernel.LinkByName("dpdk0"); err == nil {
		t.Fatal("DPDK-bound device must vanish from the kernel tables")
	}
	// AF_XDP devices stay visible.
	br.AddAFXDPPort("eth9", 1)
	if _, err := sw.kernel.LinkByName("eth9"); err != nil {
		t.Fatal("AF_XDP device must stay in the kernel tables")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (Stats, time.Duration) {
		sw := New()
		br := sw.AddBridge("br0")
		p1, _ := br.AddAFXDPPort("eth0", 1)
		p2, _ := br.AddAFXDPPort("eth1", 1)
		br.MustAddFlow("in_port=" + p1.IDString() + ",actions=output:" + p2.IDString())
		p2.OnOutput(func([]byte) {})
		for i := 0; i < 50; i++ {
			p1.Inject(udpFrame(uint16(i)))
		}
		sw.Run(3 * time.Millisecond)
		return sw.Stats(), sw.Now()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("runs diverged: %+v vs %+v", s1, s2)
	}
}

func TestSwitchVethPort(t *testing.T) {
	sw := New()
	br := sw.AddBridge("br0")
	v1, err := br.AddVethPort("veth-c1")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := br.AddVethPort("veth-c2")
	if err != nil {
		t.Fatal(err)
	}
	br.MustAddFlow("in_port=" + v1.IDString() + ",actions=output:" + v2.IDString())
	got := 0
	v2.OnOutput(func([]byte) { got++ })
	for i := 0; i < 5; i++ {
		v1.Inject(udpFrame(uint16(i)))
	}
	sw.Run(2 * time.Millisecond)
	if got != 5 {
		t.Fatalf("veth forwarding: %d/5", got)
	}
	// veth devices remain kernel-visible (AF_XDP generic mode).
	if _, err := sw.kernel.LinkByName("veth-c1"); err != nil {
		t.Fatal("veth must stay in the kernel tables")
	}
}

func TestSwitchMeterAPI(t *testing.T) {
	sw := New()
	sw.SetMeterPPS(1, 1000, 3)
	br := sw.AddBridge("br0")
	p1, _ := br.AddAFXDPPort("eth0", 1)
	p2, _ := br.AddAFXDPPort("eth1", 1)
	br.MustAddFlow("in_port=" + p1.IDString() + ",actions=meter:1,output:" + p2.IDString())
	got := 0
	p2.OnOutput(func([]byte) { got++ })
	for i := 0; i < 50; i++ {
		p1.Inject(udpFrame(uint16(i)))
	}
	sw.Run(2 * time.Millisecond)
	if got < 2 || got > 6 {
		t.Fatalf("meter passed %d packets, want ~3 (burst)", got)
	}
}
