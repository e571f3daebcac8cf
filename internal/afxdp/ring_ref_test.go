package afxdp

// refRing is Ring as it stood before its backing array grew with occupancy:
// NewRing made the whole power-of-two array at once. It is kept verbatim, but
// for the names, as the reference TestRingMatchesReference holds the growing
// Ring to.
type refRing struct {
	desc []Desc
	mask uint64
	prod uint64
	cons uint64
}

// newRefRing builds a ring with the given size (rounded up to a power of two).
func newRefRing(size int) *refRing {
	n := 1
	for n < size {
		n <<= 1
	}
	return &refRing{desc: make([]Desc, n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity.
func (r *refRing) Cap() int { return len(r.desc) }

// Len returns the number of descriptors currently queued.
func (r *refRing) Len() int { return int(r.prod - r.cons) }

// Free returns the remaining capacity.
func (r *refRing) Free() int { return r.Cap() - r.Len() }

// Push enqueues one descriptor; it reports false when the ring is full.
func (r *refRing) Push(d Desc) bool {
	if r.Len() == r.Cap() {
		return false
	}
	r.desc[r.prod&r.mask] = d
	r.prod++
	return true
}

// Pop dequeues one descriptor; ok is false when the ring is empty.
func (r *refRing) Pop() (Desc, bool) {
	if r.Len() == 0 {
		return Desc{}, false
	}
	d := r.desc[r.cons&r.mask]
	r.cons++
	return d, true
}

// PopBatch dequeues up to n descriptors into out and returns the count.
func (r *refRing) PopBatch(out []Desc, n int) int {
	if n > len(out) {
		n = len(out)
	}
	got := 0
	for got < n {
		d, ok := r.Pop()
		if !ok {
			break
		}
		out[got] = d
		got++
	}
	return got
}
