package costmodel

import (
	"testing"

	"ovsxdp/internal/sim"
)

// TestTable2LadderConsistency re-derives the Table 2 optimization ladder from
// the cost components and checks each rung lands near the paper's Mpps.
// This is the calibration contract the AF_XDP experiment depends on.
func TestTable2LadderConsistency(t *testing.T) {
	// Per-packet budget of the PMD thread on the fully optimized path
	// (O1..O5). Softirq-side work (XDP program, tx drain) runs on a
	// different CPU and must stay *below* this so the PMD is the
	// bottleneck — the ladder's deltas are all PMD-side.
	full := AFXDPRxDescriptor + AFXDPFillRefill + RxHashSoftware +
		ParseFlowKey + EMCHit + ExecActionOutput + PacketMetadataInit +
		AFXDPTxDescriptor +
		AFXDPTxKickSyscall/BatchSize +
		SpinlockPerAcquire/BatchSize + UmempoolOpBatched
	// 24 ns: the minimal program that redirects every packet into the
	// AF_XDP socket (bpf_redirect_map into an xskmap).
	softirq := XDPDriverOverhead + 24 + AFXDPTxKernelDrain
	if softirq >= full {
		t.Errorf("softirq side (%d ns) must not be the bottleneck vs PMD (%d ns)", softirq, full)
	}
	mpps := func(perPkt sim.Time) float64 { return 1e3 / float64(perPkt) }

	cases := []struct {
		name    string
		perPkt  sim.Time
		want    float64 // paper Mpps
		slackLo float64
		slackHi float64
	}{
		{"O1..O5 (7.1 est)", full, 7.1, 0.85, 1.15},
		{"O1..O4 (6.6)", full + ChecksumCost(64), 6.6, 0.85, 1.15},
		{"O1..O3 (6.3)", full + ChecksumCost(64) + PacketMetadataMmap, 6.3, 0.85, 1.15},
		{"O1..O2 (6.0)", full + ChecksumCost(64) + PacketMetadataMmap + SpinlockPerAcquire, 6.0, 0.85, 1.15},
		{"O1 (4.8)", full + ChecksumCost(64) + PacketMetadataMmap + MutexLockPerPacket, 4.8, 0.85, 1.15},
		{"none (0.8)", full + ChecksumCost(64) + PacketMetadataMmap + MutexLockPerPacket + NonPMDPollGap/BatchSize, 0.8, 0.75, 1.25},
	}
	for _, c := range cases {
		got := mpps(c.perPkt)
		if got < c.want*c.slackLo || got > c.want*c.slackHi {
			t.Errorf("%s: model gives %.2f Mpps (%.0f ns/pkt), paper %.2f Mpps",
				c.name, got, float64(c.perPkt), c.want)
		}
	}
}

// TestTable5TaskCosts checks the XDP task cost decomposition against the
// paper's single-core rates.
func TestTable5TaskCosts(t *testing.T) {
	mpps := func(perPkt sim.Time) float64 { return 1e3 / float64(perPkt) }
	// Instruction-count estimates for the task programs built in
	// internal/xdp: ~8 insns for unconditional drop, ~45 for parse.
	taskA := XDPDriverOverhead + 8*EBPFPerInstruction
	taskB := XDPDriverOverhead + 45*EBPFPerInstruction + EBPFPacketTouch
	taskC := taskB + EBPFMapLookupHash
	taskD := taskB + 18*EBPFPerInstruction + XDPTxForward
	anchors := []struct {
		name string
		got  float64
		want float64
	}{
		{"A drop", mpps(taskA), 14},
		{"B parse+drop", mpps(taskB), 8.1},
		{"C parse+lookup+drop", mpps(taskC), 7.1},
		{"D parse+rewrite+fwd", mpps(taskD), 4.7},
	}
	for _, a := range anchors {
		if a.got < a.want*0.85 || a.got > a.want*1.15 {
			t.Errorf("task %s: model %.2f Mpps, paper %.2f Mpps", a.name, a.got, a.want)
		}
	}
}

func TestLineRate(t *testing.T) {
	// 64-byte frames on 10G: classic 14.88 Mpps.
	if pps := LineRatePPS(LinkRate10G, 64); pps < 14.7e6 || pps > 15.0e6 {
		t.Errorf("10G/64B line rate = %.2f Mpps, want ~14.88", pps/1e6)
	}
	// 1518-byte frames on 25G: ~2.03 Mpps.
	if pps := LineRatePPS(LinkRate25G, 1518); pps < 2.0e6 || pps > 2.1e6 {
		t.Errorf("25G/1518B line rate = %.2f Mpps, want ~2.03", pps/1e6)
	}
	// 64-byte frames on 25G: ~37.2 Mpps theoretical (the paper's TRex
	// offered 33 Mpps, slightly below line rate).
	if pps := LineRatePPS(LinkRate25G, 64); pps < 33e6 || pps > 38e6 {
		t.Errorf("25G/64B line rate = %.2f Mpps", pps/1e6)
	}
}

func TestTransmitTime(t *testing.T) {
	tt := TransmitTime(LinkRate10G, 64)
	// (64+24)*8 bits / 10Gbps = 70.4 ns
	if tt < 65 || tt > 75 {
		t.Errorf("64B @10G transmit time = %v, want ~70ns", tt)
	}
	big := TransmitTime(LinkRate10G, 1518)
	if big <= tt {
		t.Error("larger frames must take longer to serialize")
	}
}

func TestSMTContention(t *testing.T) {
	base := sim.Time(1000)
	if got := SMTContention(base, 1); got != base {
		t.Errorf("n=1 must not inflate: %v", got)
	}
	prev := base
	for n := 2; n <= 16; n++ {
		got := SMTContention(base, n)
		if got < prev {
			t.Errorf("contention must be monotone in n: n=%d got %v < %v", n, got, prev)
		}
		prev = got
	}
	// At n=12 the factor should roughly match the Table 4 calibration:
	// per-packet kernel cost inflating ~3.75x at full fan-out.
	if got := SMTContention(base, 12); got < 3500 || got > 4100 {
		t.Errorf("n=12 contention = %v, want ~3750", got)
	}
}

func TestChecksumAndCopyCosts(t *testing.T) {
	if ChecksumCost(64) <= 0 {
		t.Error("checksum of 64B must cost something")
	}
	if ChecksumCost(1500) <= ChecksumCost(64) {
		t.Error("checksum cost must grow with payload")
	}
	if CopyCost(0) != 0 {
		t.Error("copying nothing is free")
	}
	if CopyCost(1) == 0 {
		t.Error("copying one byte must not be free")
	}
	if CopyCost(1500) <= CopyCost(64) {
		t.Error("copy cost must grow with size")
	}
}

// TestTapAmortization cross-checks Section 3.3's numbers: full-opt AF_XDP at
// ~141 ns/pkt dropping to ~1.3 Mpps when each packet pays the amortized tap
// penalty.
func TestTapAmortization(t *testing.T) {
	perPkt := sim.Time(141) + TapPerPacketAmortized
	mpps := 1e3 / float64(perPkt)
	if mpps < 1.1 || mpps > 1.5 {
		t.Errorf("tap-path rate = %.2f Mpps, paper ~1.3", mpps)
	}
}
