package xdp

import (
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/ebpf"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

var (
	macA = hdr.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = hdr.MAC{0x02, 0, 0, 0, 0, 0x0b}
	ipA  = hdr.MakeIP4(10, 0, 0, 1)
	ipB  = hdr.MakeIP4(10, 0, 0, 2)
)

func udpFrame() []byte {
	return hdr.NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).
		UDPH(1234, 5678).PayloadLen(18).PadTo(64).Build()
}

func tcpFrame(dst hdr.IP4, dport uint16) []byte {
	return hdr.NewBuilder().Eth(macA, macB).IPv4H(ipA, dst, 64).
		TCPH(40000, dport, 1, 0, hdr.TCPSyn).PadTo(64).Build()
}

func mustLoad(t testing.TB, p *ebpf.Program) *ebpf.Program {
	t.Helper()
	if err := p.Load(); err != nil {
		t.Fatalf("load %s: %v\n%s", p.Name, err, p.Disassemble())
	}
	return p
}

func TestAllLibraryProgramsPassVerifier(t *testing.T) {
	l2 := ebpf.NewHashMap(8, 4, 128)
	dev := ebpf.NewDevMap(16)
	xsk := ebpf.NewXskMap(16)
	lb := ebpf.NewArrayMap(4, 4)
	progs := []*ebpf.Program{
		NewPassToXsk(xsk),
		NewDropAll(),
		NewParseDrop(),
		NewParseLookupDrop(l2),
		NewParseSwapForward(),
		NewRedirectToVeth(l2, dev, xsk),
		NewL4LoadBalancer(LBConfig{VIP: 0x0a000002, Port: 80, Backends: lb, NumMask: 3, Xsk: xsk}),
	}
	for _, p := range progs {
		if err := p.Load(); err != nil {
			t.Errorf("%s rejected: %v", p.Name, err)
		}
	}
}

func TestPassToXskRedirects(t *testing.T) {
	xsk := ebpf.NewXskMap(4)
	if err := xsk.SetTarget(2, 77); err != nil {
		t.Fatal(err)
	}
	h := NewHook(ModelAllQueues, ModeDriver)
	if err := h.Attach(mustLoad(t, NewPassToXsk(xsk))); err != nil {
		t.Fatal(err)
	}
	res, cost, err := h.Run(2, udpFrame(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPRedirect || res.RedirectIndex != 2 {
		t.Fatalf("res = %+v", res)
	}
	if cost <= 0 {
		t.Fatal("execution must cost time")
	}
	// Queue without a socket: falls back to PASS.
	res, _, err = h.Run(3, udpFrame(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPPass {
		t.Fatalf("fallback action = %d", res.Action)
	}
}

// TestTable5CostLadder verifies the task programs reproduce Table 5's
// single-core rates within tolerance: 14 / 8.1 / 7.1 / 4.7 Mpps for tasks
// A-D, where per-packet cost = driver overhead + program execution cost
// (+ XDP_TX transmit for task D).
func TestTable5CostLadder(t *testing.T) {
	l2 := ebpf.NewHashMap(8, 4, 128)
	frame := udpFrame()

	run := func(p *ebpf.Program) (ebpf.Result, sim.Time) {
		t.Helper()
		mustLoad(t, p)
		buf := append([]byte(nil), frame...) // task D mutates
		res, err := p.Run(&ebpf.Context{Packet: buf})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		cost := costmodel.XDPDriverOverhead + ExecCost(&res)
		if res.Action == ebpf.XDPTx {
			cost += costmodel.XDPTxForward
		}
		return res, cost
	}

	resA, costA := run(NewDropAll())
	resB, costB := run(NewParseDrop())
	resC, costC := run(NewParseLookupDrop(l2))
	resD, costD := run(NewParseSwapForward())

	if resA.Action != ebpf.XDPDrop || resB.Action != ebpf.XDPDrop || resC.Action != ebpf.XDPDrop {
		t.Fatal("tasks A-C must drop")
	}
	if resD.Action != ebpf.XDPTx {
		t.Fatalf("task D action = %d, want XDP_TX", resD.Action)
	}
	if resC.HashLookups != 1 {
		t.Fatalf("task C must do one hash lookup, got %d", resC.HashLookups)
	}

	mpps := func(c sim.Time) float64 { return 1e3 / float64(c) }
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"A", mpps(costA), 14.0},
		{"B", mpps(costB), 8.1},
		{"C", mpps(costC), 7.1},
		{"D", mpps(costD), 4.7},
	}
	for _, c := range checks {
		if c.got < c.want*0.85 || c.got > c.want*1.2 {
			t.Errorf("task %s: %.2f Mpps, paper %.2f (cost ladder off)", c.name, c.got, c.want)
		}
	}
	// Ordering must strictly degrade with complexity.
	if !(costA < costB && costB < costC && costC < costD) {
		t.Errorf("cost ordering violated: %d %d %d %d", costA, costB, costC, costD)
	}
}

func TestParseSwapForwardSwapsMACs(t *testing.T) {
	p := mustLoad(t, NewParseSwapForward())
	buf := udpFrame()
	if _, err := p.Run(&ebpf.Context{Packet: buf}); err != nil {
		t.Fatal(err)
	}
	eth, err := hdr.ParseEthernet(buf)
	if err != nil {
		t.Fatal(err)
	}
	if eth.Dst != macA || eth.Src != macB {
		t.Fatalf("MACs not swapped: %s %s", eth.Dst, eth.Src)
	}
}

func TestParseDropRejectsNonIPv4(t *testing.T) {
	p := mustLoad(t, NewParseDrop())
	arp := hdr.NewBuilder().Eth(macA, hdr.Broadcast).
		ARPH(hdr.ARPRequest, macA, ipA, hdr.MAC{}, ipB).PadTo(64).Build()
	res, err := p.Run(&ebpf.Context{Packet: arp})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPDrop {
		t.Fatalf("action = %d", res.Action)
	}
}

func TestRedirectToVeth(t *testing.T) {
	l2 := ebpf.NewHashMap(8, 4, 128)
	dev := ebpf.NewDevMap(16)
	xsk := ebpf.NewXskMap(4)
	if err := xsk.SetTarget(0, 9); err != nil {
		t.Fatal(err)
	}
	if err := dev.SetTarget(5, 42); err != nil { // slot 5 -> ifindex 42
		t.Fatal(err)
	}
	// Map macB -> devmap slot 5.
	if err := l2.Update(MACKey([6]byte(macB)), []byte{5, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	p := mustLoad(t, NewRedirectToVeth(l2, dev, xsk))

	// Known MAC: redirect through the devmap.
	res, err := p.Run(&ebpf.Context{Packet: udpFrame()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPRedirect {
		t.Fatalf("action = %d, want redirect", res.Action)
	}
	if res.RedirectMap != ebpf.Map(dev) || res.RedirectIndex != 5 {
		t.Fatalf("redirect = %+v", res)
	}

	// Unknown MAC: hand to the AF_XDP socket.
	other := hdr.NewBuilder().Eth(macA, hdr.MAC{0x02, 9, 9, 9, 9, 9}).
		IPv4H(ipA, ipB, 64).UDPH(1, 2).PayloadLen(18).Build()
	res, err = p.Run(&ebpf.Context{Packet: other, RxQueue: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPRedirect || res.RedirectMap != ebpf.Map(xsk) {
		t.Fatalf("fallback = %+v", res)
	}
}

func TestL4LoadBalancer(t *testing.T) {
	backends := ebpf.NewArrayMap(4, 4)
	for i := 0; i < 4; i++ {
		ip := []byte{byte(100 + i), 0, 0, 10} // LE: 10.0.0.10x
		key := []byte{byte(i), 0, 0, 0}
		if err := backends.Update(key, ip); err != nil {
			t.Fatal(err)
		}
	}
	xsk := ebpf.NewXskMap(4)
	if err := xsk.SetTarget(0, 1); err != nil {
		t.Fatal(err)
	}
	vip := hdr.MakeIP4(10, 0, 0, 2)
	p := mustLoad(t, NewL4LoadBalancer(LBConfig{
		VIP: uint32(vip), Port: 80, Backends: backends, NumMask: 3, Xsk: xsk}))

	// VIP traffic: rewritten and forwarded.
	buf := tcpFrame(vip, 80)
	res, err := p.Run(&ebpf.Context{Packet: buf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPTx {
		t.Fatalf("VIP action = %d, want XDP_TX", res.Action)
	}
	ip4, err := hdr.ParseIPv4(buf[14:])
	if err != nil {
		t.Fatal(err)
	}
	if ip4.Dst == vip {
		t.Fatal("destination IP must be rewritten to a backend")
	}

	// Non-VIP traffic: to the AF_XDP socket.
	res, err = p.Run(&ebpf.Context{Packet: tcpFrame(hdr.MakeIP4(10, 0, 0, 3), 80)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPRedirect || res.RedirectMap != ebpf.Map(xsk) {
		t.Fatalf("non-VIP result = %+v", res)
	}

	// Wrong port: to the AF_XDP socket.
	res, _ = p.Run(&ebpf.Context{Packet: tcpFrame(vip, 443)})
	if res.Action != ebpf.XDPRedirect || res.RedirectMap != ebpf.Map(xsk) {
		t.Fatalf("wrong-port result = %+v", res)
	}
}

func TestHookAttachRequiresVerification(t *testing.T) {
	h := NewHook(ModelAllQueues, ModeDriver)
	if err := h.Attach(NewDropAll()); err == nil {
		t.Fatal("attach of unverified program must fail")
	}
}

func TestHookPerQueueModel(t *testing.T) {
	h := NewHook(ModelPerQueue, ModeDriver)
	drop := mustLoad(t, NewDropAll())
	if err := h.AttachQueue(3, drop); err != nil {
		t.Fatal(err)
	}
	if h.ProgramFor(3) != drop {
		t.Fatal("queue 3 must have the program")
	}
	if h.ProgramFor(1) != nil {
		t.Fatal("queue 1 must bypass XDP (Figure 6b)")
	}
	// Packets on unprogrammed queues pass at no cost.
	res, cost, err := h.Run(1, udpFrame(), 0)
	if err != nil || res.Action != ebpf.XDPPass || cost != 0 {
		t.Fatalf("bypass = %+v cost=%d err=%v", res, cost, err)
	}
	if err := h.AttachQueue(3, nil); err != nil {
		t.Fatal(err)
	}
	if h.HasProgram() {
		t.Fatal("detached hook must report no program")
	}
}

func TestHookAllQueuesRejectsPerQueueAttach(t *testing.T) {
	h := NewHook(ModelAllQueues, ModeDriver)
	if err := h.AttachQueue(0, mustLoad(t, NewDropAll())); err == nil {
		t.Fatal("per-queue attach on all-queues model must fail")
	}
}

func TestGenericModeCostsMore(t *testing.T) {
	prog := mustLoad(t, NewDropAll())
	drv := NewHook(ModelAllQueues, ModeDriver)
	gen := NewHook(ModelAllQueues, ModeGeneric)
	if err := drv.Attach(prog); err != nil {
		t.Fatal(err)
	}
	if err := gen.Attach(prog); err != nil {
		t.Fatal(err)
	}
	_, cDrv, _ := drv.Run(0, udpFrame(), 0)
	_, cGen, _ := gen.Run(0, udpFrame(), 0)
	if cGen <= cDrv {
		t.Fatalf("generic mode must cost more: drv=%d gen=%d", cDrv, cGen)
	}
}

func TestHookDetach(t *testing.T) {
	h := NewHook(ModelAllQueues, ModeDriver)
	if err := h.Attach(mustLoad(t, NewDropAll())); err != nil {
		t.Fatal(err)
	}
	h.Detach()
	if h.HasProgram() {
		t.Fatal("detach failed")
	}
	res, _, _ := h.Run(0, udpFrame(), 0)
	if res.Action != ebpf.XDPPass {
		t.Fatal("detached hook must pass packets")
	}
}

// hookWith returns an all-queues hook running p, loaded.
func hookWith(tb testing.TB, p *ebpf.Program) *Hook {
	tb.Helper()
	h := NewHook(ModelAllQueues, ModeDriver)
	if err := h.Attach(mustLoad(tb, p)); err != nil {
		tb.Fatal(err)
	}
	return h
}

func passToXskHook(tb testing.TB) *Hook {
	xsk := ebpf.NewXskMap(1)
	if err := xsk.SetTarget(0, 0); err != nil {
		tb.Fatal(err)
	}
	return hookWith(tb, NewPassToXsk(xsk))
}

// TestHookRunZeroAlloc: the per-packet XDP stage must not allocate, for the
// program every AF_XDP port runs and for the heaviest Table 5 task.
func TestHookRunZeroAlloc(t *testing.T) {
	for name, h := range map[string]*Hook{
		"pass-to-xsk": passToXskHook(t),
		"task D":      hookWith(t, NewParseSwapForward()),
	} {
		frame := udpFrame()
		if n := testing.AllocsPerRun(1000, func() {
			if _, _, err := h.Run(0, frame, 1); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per Hook.Run, want 0", name, n)
		}
	}
}

func benchmarkHookRun(b *testing.B, h *Hook, frame []byte) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.Run(0, frame, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHookRunPassToXsk(b *testing.B) { benchmarkHookRun(b, passToXskHook(b), udpFrame()) }

func BenchmarkHookRunTaskD(b *testing.B) {
	benchmarkHookRun(b, hookWith(b, NewParseSwapForward()), udpFrame())
}

func BenchmarkHookRunL4LB(b *testing.B) {
	vip := hdr.MakeIP4(192, 168, 0, 100)
	backends := ebpf.NewArrayMap(4, 4)
	for i := 0; i < 4; i++ {
		if err := backends.Update([]byte{byte(i), 0, 0, 0}, []byte{byte(10 + i), 0, 0, 10}); err != nil {
			b.Fatal(err)
		}
	}
	h := hookWith(b, NewL4LoadBalancer(LBConfig{VIP: uint32(vip), Port: 80, Backends: backends,
		NumMask: 3, Xsk: ebpf.NewXskMap(1)}))
	benchmarkHookRun(b, h, tcpFrame(vip, 80))
}
