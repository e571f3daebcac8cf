// Package measure implements the paper's measurement methodology: the
// maximum-lossless-rate binary search of Section 5.2 ("we measured the
// maximum lossless packet rate and the corresponding CPU utilization") and
// helpers for reporting CPU usage in Table 4's hyperthread units.
package measure

import (
	"ovsxdp/internal/sim"
)

// ProbeResult is one offered-load trial.
type ProbeResult struct {
	Offered   uint64
	Delivered uint64
	Dropped   uint64
	Usage     sim.Usage
}

// LossFraction returns dropped/offered.
func (r ProbeResult) LossFraction() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(r.Offered)
}

// Probe runs one trial at ratePPS and reports delivery/drops/CPU over the
// measurement window. Each call must build a fresh testbed so trials are
// independent.
type Probe func(ratePPS float64) ProbeResult

// SearchConfig tunes the lossless search.
type SearchConfig struct {
	// LoPPS/HiPPS bracket the search.
	LoPPS, HiPPS float64
	// LossTolerance is the drop fraction treated as lossless (TRex-style
	// measurements tolerate a handful of warmup drops).
	LossTolerance float64
	// Iterations of bisection (12 gives ~0.05% precision).
	Iterations int
}

// LosslessRate bisects to the maximum rate the system sustains without
// loss. It returns that rate, the trial measured at it, and whether any
// rate in the bracket was sustainable; when found is false the rate is 0
// and the trial is the failed probe closest to the floor (so callers still
// see what the system did, without mistaking it for a lossless point).
func LosslessRate(cfg SearchConfig, probe Probe) (rate float64, res ProbeResult, found bool) {
	lo, hi := cfg.LoPPS, cfg.HiPPS
	if cfg.Iterations <= 0 {
		cfg.Iterations = 12
	}
	// Quick accept: the whole bracket may be sustainable.
	hiRes := probe(hi)
	if hiRes.LossFraction() <= cfg.LossTolerance && hiRes.Delivered > 0 {
		return hi, hiRes, true
	}
	// The failed probe is not wasted: its loss fraction bounds the
	// sustainable rate at roughly hi*(1-loss), so shrink the bracket to
	// that (plus headroom) before bisecting.
	lastFail := hiRes
	if f := hiRes.LossFraction(); f > 0 {
		if bound := hi * (1 - f) * 1.1; bound > lo && bound < hi {
			hi = bound
		}
	}
	var bestRate float64
	var bestRes ProbeResult
	for i := 0; i < cfg.Iterations; i++ {
		mid := (lo + hi) / 2
		r := probe(mid)
		if r.LossFraction() <= cfg.LossTolerance && r.Delivered > 0 {
			bestRate, bestRes, found = mid, r, true
			lo = mid
		} else {
			lastFail = r
			hi = mid
		}
	}
	if !found {
		// Nothing sustainable in the bracket: report the lowest failed
		// trial rather than pretending the floor was lossless.
		return 0, lastFail, false
	}
	return bestRate, bestRes, true
}

// Mpps formats packets/s as the paper's Mpps.
func Mpps(pps float64) float64 { return pps / 1e6 }
