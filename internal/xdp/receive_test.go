package xdp

import (
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/ebpf"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

func TestHookReceiveXDPVerdicts(t *testing.T) {
	cpu := sim.NewEngine(1).NewCPU("softirq0")
	xskMap := ebpf.NewXskMap(4)
	if err := xskMap.SetTarget(0, 42); err != nil {
		t.Fatal(err)
	}
	h := hookWith(t, NewPassToXsk(xskMap))

	var gotSock uint32
	var gotPkt *packet.Packet
	h.Receive(cpu, 0, packet.New(udpFrame()), 1, &Verdicts{
		ToXsk: func(s uint32, p *packet.Packet) { gotSock, gotPkt = s, p },
	})
	if gotSock != 42 || gotPkt == nil {
		t.Fatalf("xsk verdict: sock=%d", gotSock)
	}
	if cpu.Busy(sim.Softirq) <= costmodel.XDPDriverOverhead {
		t.Fatal("driver + program cost must be charged to softirq")
	}
}

// TestHookReceiveNoProgramPasses: with no program attached a frame gets
// XDP_PASS for free, and the driver stage charges only its own overhead.
func TestHookReceiveNoProgramPasses(t *testing.T) {
	h := NewHook(ModeDriver)
	res, cost, err := h.Run(0, udpFrame(), 1)
	if err != nil || res.Action != ebpf.XDPPass || cost != 0 {
		t.Fatalf("no program = %+v cost=%d err=%v", res, cost, err)
	}
	cpu := sim.NewEngine(1).NewCPU("softirq0")
	h.Receive(cpu, 0, packet.New(udpFrame()), 1, &Verdicts{})
	if got := cpu.Busy(sim.Softirq); got != costmodel.XDPDriverOverhead {
		t.Fatalf("softirq charged %d, want the driver overhead %d", got, costmodel.XDPDriverOverhead)
	}
}

func TestHookReceiveTxVerdict(t *testing.T) {
	cpu := sim.NewEngine(1).NewCPU("softirq0")
	h := hookWith(t, NewParseSwapForward())
	var txd *packet.Packet
	h.Receive(cpu, 0, packet.New(udpFrame()), 1, &Verdicts{Tx: func(p *packet.Packet) { txd = p }})
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
		h := NewHook(ModeDriver)
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
