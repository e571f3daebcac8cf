package sim

import "math/bits"

// Histogram records non-negative samples (latencies in virtual nanoseconds)
// in fixed memory and reports percentiles the way netperf does in the
// paper's Figures 10 and 11 (P50/P90/P99). Buckets are log-linear: a value
// below 2^12 has a bucket to itself, and every power-of-two range above is
// split into 2^11 equal buckets, a relative width below 2^-11. A bucket
// keeps its count and the sum of its samples' offsets from its low edge, so
// it reports its mean: exactly the value when its samples are all equal,
// the common case in a deterministic simulation. Rows of 256 buckets (4 KB)
// are allocated on first touch; after that recording allocates nothing.
// The zero Histogram is empty and ready to use.
type Histogram struct {
	rows []*histRow
	n    uint64
	sum  float64
}

const (
	histSubBits = 11
	histSubSize = 1 << histSubBits
	histRowSize = 256
)

type histRow [histRowSize]struct{ n, off uint64 }

// Record adds one sample; a negative one counts as zero.
func (h *Histogram) Record(t Time) {
	v := uint64(max(t, 0))
	// The top bit and the histSubBits below it select the bucket, the rest
	// is the offset inside it; below 2^(histSubBits+1) the shift is zero.
	shift := uint(max(bits.Len64(v)-histSubBits-1, 0))
	i := uint64(shift)*histSubSize + v>>shift
	for i/histRowSize >= uint64(len(h.rows)) {
		h.rows = append(h.rows, nil)
	}
	row := &h.rows[i/histRowSize]
	if *row == nil {
		*row = new(histRow)
	}
	b := &(*row)[i%histRowSize]
	b.n++
	b.off += v & (1<<shift - 1)
	h.n++
	h.sum += float64(v)
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int { return int(h.n) }

// Mean returns the arithmetic mean, exact to the sample, or 0 with none.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// at returns the mean of the bucket holding the k-th smallest sample, k < n.
func (h *Histogram) at(k uint64) float64 {
	for r, row := range h.rows {
		if row == nil {
			continue
		}
		for j := range row {
			b := &row[j]
			if b.n <= k {
				k -= b.n
				continue
			}
			// The bucket's low edge undoes Record's index arithmetic.
			low := uint64(r*histRowSize + j)
			if low >= 2*histSubSize {
				low = (histSubSize | low&(histSubSize-1)) << (low>>histSubBits - 1)
			}
			return float64(low) + float64(b.off)/float64(b.n)
		}
	}
	panic("sim: histogram rank out of range")
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks, or 0 with no samples.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := min(max(p, 0), 100) / 100 * float64(h.n-1)
	lo := uint64(rank)
	if lo+1 >= h.n {
		return h.at(h.n - 1)
	}
	frac := rank - float64(lo)
	return h.at(lo)*(1-frac) + h.at(lo+1)*frac
}

// Summary holds the three percentiles the paper reports.
type Summary struct {
	P50, P90, P99 float64
}

// Summarize returns the P50/P90/P99 summary.
func (h *Histogram) Summarize() Summary {
	return Summary{h.Percentile(50), h.Percentile(90), h.Percentile(99)}
}
