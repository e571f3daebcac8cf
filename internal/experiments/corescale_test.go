package experiments

import (
	"fmt"
	"testing"

	"ovsxdp/internal/api"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/sim"
)

// TestMultiPMDConservation runs the same offered trace through 1, 2, and 4
// PMD threads and checks the packet ledger: every packet the generator sent
// is either delivered or counted by exactly one drop counter once the bed
// drains. Rebalancing, XPS, and the assignment layer must never lose or
// duplicate a packet.
func TestMultiPMDConservation(t *testing.T) {
	for _, pmds := range []int{1, 2, 4} {
		cfg := DefaultBed(KindAFXDP, 200)
		cfg.Queues = 4
		cfg.PMDs = pmds
		bed := NewP2PBed(cfg)

		const rate = 2e6
		window := 2 * sim.Millisecond
		bed.Gen.Run(rate, window)
		bed.Eng.RunUntil(window + 5*sim.Millisecond)

		if got := bed.Delivered + bed.Drops(); got != bed.Gen.Sent {
			t.Fatalf("%d PMDs: sent %d != delivered %d + drops %d (ledger off by %d)",
				pmds, bed.Gen.Sent, bed.Delivered, bed.Drops(),
				int64(bed.Gen.Sent)-int64(got))
		}
		if bed.Delivered == 0 {
			t.Fatalf("%d PMDs: nothing delivered", pmds)
		}
	}
}

// corescaleFingerprint runs a skewed-RSS bed with the cycles policy and a
// fast auto-LB interval, and serializes every observable stat — delivered,
// drops, balancer counters, the rxq placement, and the full per-thread perf
// table. Two runs with the same seed must produce byte-identical strings.
func corescaleFingerprint(t *testing.T) (string, uint64) {
	t.Helper()
	cfg := DefaultBed(KindAFXDP, 500)
	cfg.Queues = 4
	cfg.PMDs = 2
	cfg.RSSWeights = []int{8, 2, 1, 1}
	cfg.Other = map[string]string{
		"pmd-rxq-assign":                    "cycles",
		"pmd-auto-lb":                       "true",
		"pmd-auto-lb-rebal-interval-us":     "500",
		"pmd-auto-lb-improvement-threshold": "5",
	}
	bed := NewP2PBed(cfg)
	bed.Gen.Run(4e6, 4*sim.Millisecond)
	bed.Eng.RunUntil(5 * sim.Millisecond)

	nd := bed.DP.(*dpif.Netdev)
	reb, moves, dry := nd.Datapath().RebalanceStats()
	fp := fmt.Sprintf("delivered=%d drops=%d rebalances=%d moves=%d dryruns=%d\n%s%s",
		bed.Delivered, bed.Drops(), reb, moves, dry,
		nd.Datapath().PmdRxqShow(), api.NewPerfView(nd.PerfStats()).FormatTable())
	return fp, reb
}

// TestAutoLBDeterminism: identical seeds must give byte-identical stats,
// including across mid-run rebalances (at least one must actually happen
// for the test to mean anything).
func TestAutoLBDeterminism(t *testing.T) {
	a, rebA := corescaleFingerprint(t)
	b, rebB := corescaleFingerprint(t)
	if rebA == 0 {
		t.Fatal("skewed bed never rebalanced; determinism test is vacuous")
	}
	if rebA != rebB || a != b {
		t.Fatalf("same seed, different stats:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
}

// TestCoreScaleQuickDeterminism runs the smallest corescale sweep point
// twice and requires byte-identical reports — the acceptance bar for the
// benchmark itself.
func TestCoreScaleQuickDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("corescale point is expensive")
	}
	p := Profile{Warmup: sim.Millisecond, Window: 2 * sim.Millisecond}
	a := corescaleTrial(KindAFXDP, 1, nil, nil, p)
	b := corescaleTrial(KindAFXDP, 1, nil, nil, p)
	if a != b {
		t.Fatalf("corescale trial not deterministic: %.6f vs %.6f Mpps", a, b)
	}
	if a <= 0 {
		t.Fatalf("corescale trial delivered nothing")
	}
}
