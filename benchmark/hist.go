package main

import (
	"math"
	"math/bits"
	"sort"
)

// histogram is a fixed-bucket log-linear histogram of non-negative integer
// samples (virtual nanoseconds). Values below 2^(subBits+1) get one bucket
// each, so they are counted exactly; above that every power-of-two range is
// split into 2^subBits equal buckets, a relative width below 0.05%. Memory
// is fixed and recording allocates nothing, unlike sim.Histogram.
type histogram struct {
	counts []uint64
	n      uint64
	max    int64
}

const (
	subBits = 11
	subSize = 1 << subBits
	// maxExp bounds recorded values at 2^maxExp ns (about 18 minutes of
	// virtual time); larger samples land in the last bucket.
	maxExp   = 40
	nBuckets = (maxExp - subBits + 1) * subSize
)

func newHistogram() *histogram { return &histogram{counts: make([]uint64, nBuckets)} }

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 2*subSize {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the top bit, > subBits
	if exp >= maxExp {
		return nBuckets - 1
	}
	// The top bit plus the next subBits bits select the bucket.
	sub := int(v>>(exp-subBits)) - subSize
	return (exp-subBits)*subSize + subSize + sub
}

// bucketHigh is the largest value bucket i holds.
func bucketHigh(i int) int64 {
	if i < 2*subSize {
		return int64(i)
	}
	exp := i/subSize - 1 + subBits
	sub := int64(i % subSize)
	shift := uint(exp - subBits)
	return (subSize+sub+1)<<shift - 1
}

func (h *histogram) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the upper edge
// of the bucket holding the ceil(q*n)-th smallest sample, capped at the
// largest sample seen. With no samples it returns 0.
func (h *histogram) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if hi := bucketHigh(i); hi < h.max {
				return hi
			}
			return h.max
		}
	}
	return h.max
}

// above counts samples strictly beyond the q-quantile's rank, the number the
// choosing-metrics guide wants at least ten of before a percentile is quoted.
func (h *histogram) above(q float64) uint64 {
	return h.n - uint64(math.Ceil(q*float64(h.n)))
}

// median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default exclusive method) does, so the
// spreads printed here are the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	sort.Float64s(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(3)
}
