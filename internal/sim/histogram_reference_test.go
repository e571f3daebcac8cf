package sim

import "sort"

// exactHistogram is the histogram this package shipped before the
// fixed-memory one: it keeps every sample and sorts on read, so it is exact
// and grows without bound. It survives as the oracle Histogram is tested
// against (TestLogLinearMatchesExact, FuzzHistogram).
type exactHistogram struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Record adds one sample.
func (h *exactHistogram) Record(v float64) {
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
}

// Count returns the number of samples recorded.
func (h *exactHistogram) Count() int { return len(h.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *exactHistogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks, or 0 with no samples.
func (h *exactHistogram) Percentile(p float64) float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return h.samples[n-1]
	}
	return h.samples[lo]*(1-frac) + h.samples[lo+1]*frac
}
