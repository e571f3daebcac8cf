package measure

import (
	"math"
	"testing"
)

// fakeSystem sustains capacity pps losslessly and drops everything beyond.
func fakeSystem(capacity float64) Probe {
	return func(rate float64) ProbeResult {
		offered := uint64(rate / 100) // arbitrary window scaling
		if rate <= capacity {
			return ProbeResult{Offered: offered, Delivered: offered}
		}
		delivered := uint64(capacity / 100)
		return ProbeResult{Offered: offered, Delivered: delivered, Dropped: offered - delivered}
	}
}

func TestLosslessRateConverges(t *testing.T) {
	cfg := SearchConfig{LoPPS: 1e4, HiPPS: 20e6, LossTolerance: 0, Iterations: 20}
	rate, res, found := LosslessRate(cfg, fakeSystem(7.1e6))
	if !found {
		t.Fatal("a sustainable rate exists in the bracket")
	}
	if math.Abs(rate-7.1e6) > 0.02e6 {
		t.Fatalf("converged to %.3f Mpps, want 7.1", Mpps(rate))
	}
	if res.Dropped != 0 {
		t.Fatal("result trial must be lossless")
	}
}

func TestLosslessRateWholeBracketSustainable(t *testing.T) {
	cfg := SearchConfig{LoPPS: 1e4, HiPPS: 5e6, Iterations: 12}
	rate, _, found := LosslessRate(cfg, fakeSystem(50e6))
	if !found || rate != 5e6 {
		t.Fatalf("rate = %v found = %v, want the bracket top", rate, found)
	}
}

// Regression: an empty bracket used to come back as (cfg.LoPPS, fresh
// lossless-looking probe), indistinguishable from "floor sustainable". Now
// found must be false, the rate zero, and the reported trial a failed one.
func TestLosslessRateNothingSustainable(t *testing.T) {
	probes := 0
	probe := func(rate float64) ProbeResult {
		probes++
		return ProbeResult{Offered: 100, Delivered: 0, Dropped: 100}
	}
	cfg := SearchConfig{LoPPS: 1e4, HiPPS: 1e6, Iterations: 8}
	rate, res, found := LosslessRate(cfg, probe)
	if found {
		t.Fatal("found = true with nothing sustainable")
	}
	if rate != 0 {
		t.Fatalf("rate = %v, want 0 when nothing is sustainable", rate)
	}
	if res.Dropped == 0 {
		t.Fatal("reported trial must be a real failed probe, not a synthetic lossless one")
	}
	if probes != 1+cfg.Iterations {
		t.Fatalf("ran %d probes, want quick-accept + %d bisections with no extra floor probe",
			probes, cfg.Iterations)
	}
}

// Regression: the failed quick-accept probe used to be discarded; its loss
// fraction now tightens the bracket, so the first bisection midpoint must
// sit below (lo+hi)/2.
func TestLosslessRateReusesFailedQuickAccept(t *testing.T) {
	var rates []float64
	capacity := 2e6
	probe := func(rate float64) ProbeResult {
		rates = append(rates, rate)
		return fakeSystem(capacity)(rate)
	}
	cfg := SearchConfig{LoPPS: 1e4, HiPPS: 20e6, Iterations: 12}
	rate, _, found := LosslessRate(cfg, probe)
	if !found || math.Abs(rate-capacity) > 0.02e6 {
		t.Fatalf("rate = %.3f Mpps found = %v, want ~%.1f", Mpps(rate), found, Mpps(capacity))
	}
	if len(rates) < 2 || rates[0] != cfg.HiPPS {
		t.Fatalf("first probe must be the quick accept at hi, got %v", rates)
	}
	// The hi probe lost 90% of its load, so the bracket should shrink to
	// about hi*0.1*1.1 before bisection; an untightened search would probe
	// (lo+hi)/2 = 10 Mpps first.
	naiveMid := (cfg.LoPPS + cfg.HiPPS) / 2
	if rates[1] >= naiveMid {
		t.Fatalf("first bisection at %.2f Mpps; failed hi probe was not reused to tighten the bracket",
			Mpps(rates[1]))
	}
}

func TestLossToleranceAllowsWarmupDrops(t *testing.T) {
	// A system with a constant tiny drop count must still find its rate.
	probe := func(rate float64) ProbeResult {
		offered := uint64(rate / 100)
		drops := uint64(1) // one warmup drop regardless
		if rate > 3e6 {
			drops = offered / 2
		}
		return ProbeResult{Offered: offered, Delivered: offered - drops, Dropped: drops}
	}
	cfg := SearchConfig{LoPPS: 1e5, HiPPS: 10e6, LossTolerance: 0.01, Iterations: 16}
	rate, _, _ := LosslessRate(cfg, probe)
	if math.Abs(rate-3e6) > 0.05e6 {
		t.Fatalf("rate = %.3f Mpps, want ~3.0", Mpps(rate))
	}
}

func TestProbeResultLossFraction(t *testing.T) {
	r := ProbeResult{Offered: 100, Dropped: 5}
	if r.LossFraction() != 0.05 {
		t.Fatalf("loss = %v", r.LossFraction())
	}
	if (ProbeResult{}).LossFraction() != 0 {
		t.Fatal("zero offered must not divide by zero")
	}
}
