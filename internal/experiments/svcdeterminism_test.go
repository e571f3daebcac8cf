package experiments

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"ovsxdp/internal/api"
	"ovsxdp/internal/core"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/svc"
)

// snapshotBed renders everything observable about a finished bed to JSON —
// final stats view, perf view, delivery counters — for byte comparison.
func snapshotBed(t *testing.T, bed *Bed) []byte {
	t.Helper()
	snap := struct {
		Sent, Delivered, Drops uint64
		Now                    int64
		Stats                  api.StatsView
		Perf                   api.PerfView
	}{
		Sent: bed.Gen.Sent, Delivered: bed.Delivered, Drops: bed.Drops(),
		Now:   int64(bed.Eng.Now()),
		Stats: api.NewStatsView(bed.DP),
		Perf:  api.NewPerfView(bed.DP.PerfStats()),
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDeterminismWithIdleDaemon is the PR's core determinism claim: a
// same-seed run with the full control plane attached — controller slicing
// the engine, HTTP server listening — but receiving no requests is
// byte-identical to a plain run. The API's mere presence must be free.
func TestDeterminismWithIdleDaemon(t *testing.T) {
	const (
		rate   = 2e6
		window = 5 * sim.Millisecond
		drain  = window + 1*sim.Millisecond
	)
	build := func() *Bed { return NewP2PBed(DefaultBed(KindAFXDP, 64)) }

	// Plain run: the engine driven directly.
	plain := build()
	plain.Gen.Run(rate, window)
	plain.Eng.RunUntil(drain)

	// Daemon-attached run: same seed, same workload, but the controller
	// slices the run and a live HTTP server sits on top — idle.
	attached := build()
	ctl := core.NewController(attached.Eng)
	server := svc.NewServer(ctl, svc.Target{Name: "d0", DP: attached.DP})
	server.SetInjector(faultinject.New(attached.Eng))
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	attached.Gen.Run(rate, window)
	ctl.Run(drain)

	a, b := snapshotBed(t, plain), snapshotBed(t, attached)
	if string(a) != string(b) {
		t.Fatalf("idle daemon perturbed the run:\n plain:    %s\n attached: %s", a, b)
	}
}

// TestSoakAcceptance runs the full HTTP-driven soak at the quick profile
// and requires every acceptance condition: all three conservation ledgers
// exact, the SMC flip took, the auto-LB rebalanced, the fault window
// evicted hardware rules, and no HTTP call failed.
func TestSoakAcceptance(t *testing.T) {
	s := RunSoak(Quick)
	if !s.OK() {
		t.Fatalf("soak failed acceptance:\n"+
			" rx ledger ok=%v (sent %d = delivered %d + drops %d + lost %d + qdrops %d + malformed %d)\n"+
			" ct ledger ok=%v (created %d = expired %d + early %d + evicted %d + live %d)\n"+
			" offload ledger ok=%v (installs %d = evictions %d + uninstalls %d + live %d)\n"+
			" smc hits=%d rebalances=%d evictions=%d\n http errors: %v",
			s.RxLedgerOK, s.UDPSent+s.TCPSent, s.Delivered, s.Drops, s.Lost, s.QueueDrops, s.MalformedDrops,
			s.CtLedgerOK, s.CtCreated, s.CtExpired, s.CtEarlyDrops, s.CtEvictions, s.CtLive,
			s.OffLedgerOK, s.OffInstalls, s.OffEvictions, s.OffUninstalls, s.OffLive,
			s.SMCHits, s.Rebalances, s.OffEvictions, s.HTTPErrors)
	}
	if len(s.HTTPCalls) < 5 {
		t.Fatalf("expected the full HTTP timeline (2 PUTs, 1 POST, 2 GETs), saw %v", s.HTTPCalls)
	}
	if s.MidEvictions == 0 {
		t.Fatal("mid-run HTTP stats check saw no evictions during the fault window")
	}
}
