package experiments

import "testing"

// TestConnscaleQuickAcceptance runs the quick profile and checks the
// scenario's headline claims: the conservation ledger holds at every
// point, connections actually reach the configured scale, and the
// degradation ladder keeps goodput within 10% of the no-flood baseline
// while shedding embryonic flood state.
func TestConnscaleQuickAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs millions of virtual packets")
	}
	res := RunConnscale(Quick, nil)
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	var sawSteady, sawFlood bool
	for _, pt := range res.Points {
		if !pt.LedgerOK {
			t.Errorf("%s: ledger broken: created %d != expired %d + early %d + evicted %d + live %d",
				pt.Name, pt.Created, pt.Expired, pt.EarlyDrops, pt.Evicted, pt.LiveAfterDrain)
		}
		if pt.LiveAfterDrain != 0 {
			t.Errorf("%s: %d connections survived the drain", pt.Name, pt.LiveAfterDrain)
		}
		if pt.Flood {
			sawFlood = true
			if pt.HeldPct < 90 {
				t.Errorf("%s: ladder held %.1f%% of baseline goodput, want >= 90%%", pt.Name, pt.HeldPct)
			}
			if pt.EstHeldPct < 90 {
				t.Errorf("%s: established goodput held %.1f%%, want >= 90%%", pt.Name, pt.EstHeldPct)
			}
			if pt.EarlyDrops == 0 {
				t.Errorf("%s: flood arm shed no embryonic state", pt.Name)
			}
			if pt.NoLadderHeldPct >= pt.HeldPct {
				t.Errorf("%s: hard limit held %.1f%% >= ladder %.1f%% — ladder shows no benefit",
					pt.Name, pt.NoLadderHeldPct, pt.HeldPct)
			}
		} else {
			sawSteady = true
			if pt.PeakConns != pt.Conns {
				t.Errorf("%s: peak %d connections, want %d concurrent", pt.Name, pt.PeakConns, pt.Conns)
			}
			if pt.EarlyDrops != 0 || pt.Evicted != 0 || pt.TableFull != 0 {
				t.Errorf("%s: unlimited steady point shed state: early=%d evicted=%d full=%d",
					pt.Name, pt.EarlyDrops, pt.Evicted, pt.TableFull)
			}
		}
	}
	if !sawSteady || !sawFlood {
		t.Fatalf("quick profile must include a steady and a flood point (steady=%v flood=%v)",
			sawSteady, sawFlood)
	}
}
