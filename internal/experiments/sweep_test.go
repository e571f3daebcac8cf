package experiments

import (
	"encoding/json"
	"testing"
)

// TestSweepsHoldTheirLedgers runs every sweep's quick profile through the
// Scenario contract and reads its JSON result the way a consumer of
// BENCH_<scenario>.json would: at every point the conservation ledger must
// hold and the post-window drain must have emptied the table.
func TestSweepsHoldTheirLedgers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs millions of virtual packets")
	}
	for _, id := range []string{"churnscale", "connscale", "offload"} {
		t.Run(id, func(t *testing.T) {
			s, ok := GetScenario(id)
			if !ok {
				t.Fatalf("no scenario %s", id)
			}
			_, res := s.Run(Quick, nil)
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Points []struct {
					Name           string `json:"name"`
					LedgerOK       bool   `json:"ledger_ok"`
					LiveAfterDrain int    `json:"live_after_drain"`
				} `json:"points"`
			}
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Points) != len(s.Points(Quick)) {
				t.Fatalf("%d points, want %d (%v)", len(got.Points), len(s.Points(Quick)), s.Points(Quick))
			}
			for _, pt := range got.Points {
				if !pt.LedgerOK {
					t.Errorf("%s: ledger broken", pt.Name)
				}
				if pt.LiveAfterDrain != 0 {
					t.Errorf("%s: %d entries survived the drain", pt.Name, pt.LiveAfterDrain)
				}
			}
		})
	}
}
