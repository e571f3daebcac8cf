package xdp

import (
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/ebpf"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// receiveAll runs each packet through h's driver stage as received on queue
// 0, collecting what passes up to the stack.
func receiveAll(h *Hook, cpu *sim.CPU, v Verdicts, pkts ...*packet.Packet) (passed []*packet.Packet) {
	v.Pass = func(p *packet.Packet) { passed = append(passed, p) }
	for _, p := range pkts {
		h.Receive(cpu, 0, p, 1, &v)
	}
	return passed
}

func TestHookReceiveXDPVerdicts(t *testing.T) {
	cpu := sim.NewEngine(1).NewCPU("softirq0")
	xskMap := ebpf.NewXskMap(4)
	if err := xskMap.SetTarget(0, 42); err != nil {
		t.Fatal(err)
	}
	h := hookWith(t, NewPassToXsk(xskMap))

	var gotSock uint32
	var gotPkt *packet.Packet
	passed := receiveAll(h, cpu, Verdicts{
		ToXsk: func(s uint32, p *packet.Packet) { gotSock, gotPkt = s, p },
	}, packet.New(udpFrame()))
	if len(passed) != 0 {
		t.Fatalf("passed=%d", len(passed))
	}
	if gotSock != 42 || gotPkt == nil {
		t.Fatalf("xsk verdict: sock=%d", gotSock)
	}
	if cpu.Busy(sim.Softirq) <= costmodel.XDPDriverOverhead {
		t.Fatal("driver + program cost must be charged to softirq")
	}
}

func TestHookReceiveNoProgramPasses(t *testing.T) {
	cpu := sim.NewEngine(1).NewCPU("softirq0")
	h := NewHook(ModelAllQueues, ModeDriver)
	if passed := receiveAll(h, cpu, Verdicts{}, packet.New(udpFrame())); len(passed) != 1 {
		t.Fatalf("passed = %d", len(passed))
	}
}

func TestHookReceiveTxVerdict(t *testing.T) {
	cpu := sim.NewEngine(1).NewCPU("softirq0")
	h := hookWith(t, NewParseSwapForward())
	var txd *packet.Packet
	receiveAll(h, cpu, Verdicts{Tx: func(p *packet.Packet) { txd = p }}, packet.New(udpFrame()))
	if txd == nil {
		t.Fatal("XDP_TX verdict not delivered")
	}
	eth, _ := hdr.ParseEthernet(txd.Data)
	if eth.Dst != macA {
		t.Fatal("task D must have swapped MACs in place")
	}
}

// TestHookReceiveReleasesTerminalVerdicts: a packet the XDP stage does not
// hand on — dropped, aborted by a faulting program, passed, redirected or
// transmitted with no consumer — goes back to its pool.
func TestHookReceiveReleasesTerminalVerdicts(t *testing.T) {
	xsk := ebpf.NewXskMap(4) // no targets: pass-to-XSK falls back to XDP_PASS
	routed := ebpf.NewXskMap(4)
	if err := routed.SetTarget(0, 0); err != nil {
		t.Fatal(err)
	}
	// A program whose map table changed after Load is refused at run time:
	// the driver sees a faulting run.
	faulting := NewParseSwapForward()
	for _, tc := range []struct {
		name    string
		prog    *ebpf.Program
		prepare func()
	}{
		{"drop", NewDropAll(), nil},
		{"pass, no consumer", NewPassToXsk(xsk), nil},
		{"redirect, no consumer", NewPassToXsk(routed), nil},
		{"redirect without a redirect_map call", ebpf.NewProgram("bare-redirect",
			ebpf.MovImm(ebpf.R0, ebpf.XDPRedirect), ebpf.Exit()), nil},
		{"XDP_TX with no Tx consumer", NewParseSwapForward(), nil},
		{"fault", faulting, func() { faulting.AttachMap(9, ebpf.NewHashMap(4, 4, 1)) }},
		{"no program", nil, nil},
	} {
		cpu := sim.NewEngine(1).NewCPU("softirq0")
		h := NewHook(ModelAllQueues, ModeDriver)
		if tc.prog != nil {
			h = hookWith(t, tc.prog)
		}
		if tc.prepare != nil {
			tc.prepare()
		}
		pool := packet.NewPool(4, 64, true)
		h.Receive(cpu, 0, pool.GetCopy(udpFrame()), 1, &Verdicts{})
		if pool.Available() != 4 {
			t.Errorf("%s: %d of 4 packets back in the pool", tc.name, pool.Available())
		}
	}
}
