// Package afxdp implements the AF_XDP data structures of Section 3: umem
// buffer regions, the four single-producer/single-consumer descriptor rings
// (fill, completion, rx, tx), XSK sockets, and the umempool buffer manager
// whose locking strategy optimizations O2 and O3 are about.
//
// The structures are real — descriptors circulate through actual ring
// buffers, packet bytes live in actual umem chunks — while the *costs* of
// operating them (syscalls, driver work) are charged by the layers above
// from the cost model. Packet loss emerges naturally: when the fill ring is
// empty or the rx ring is full, the driver has nowhere to put a packet and
// drops it, which is exactly the lossless-rate cliff the paper's Figure 9
// binary-searches for.
package afxdp

// DefaultRingSize matches XSK_RING_{PROD,CONS}__DEFAULT_NUM_DESCS.
const DefaultRingSize = 2048

// Desc is one ring descriptor: a umem address and frame length.
type Desc struct {
	Addr uint64
	Len  uint32
}

// Ring is a bounded single-producer single-consumer descriptor ring of a
// power-of-two capacity, backed by an array that starts empty and doubles
// on a Push that finds it full: a ring holds what it has held at most.
type Ring struct {
	desc []Desc // len zero or a power of two, at most capacity
	size int    // capacity
	prod uint64
	cons uint64
}

// NewRing builds a ring with the given size (rounded up to a power of two).
func NewRing(size int) *Ring {
	n := 1
	for n < size {
		n <<= 1
	}
	return &Ring{size: n}
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return r.size }

// Len returns the number of descriptors currently queued.
func (r *Ring) Len() int { return int(r.prod - r.cons) }

// Free returns the remaining capacity.
func (r *Ring) Free() int { return r.Cap() - r.Len() }

// Push enqueues one descriptor; it reports false when the ring is full.
func (r *Ring) Push(d Desc) bool {
	if r.Len() == len(r.desc) {
		if r.Len() == r.size {
			return false
		}
		r.grow()
	}
	r.desc[r.prod&uint64(len(r.desc)-1)] = d
	r.prod++
	return true
}

// grow doubles the backing array (from 16, capped at the capacity),
// keeping each queued descriptor at its counter's new index.
func (r *Ring) grow() {
	desc := make([]Desc, min(r.size, max(16, 2*len(r.desc))))
	for i := r.cons; i != r.prod; i++ {
		desc[i&uint64(len(desc)-1)] = r.desc[i&uint64(len(r.desc)-1)]
	}
	r.desc = desc
}

// Pop dequeues one descriptor; ok is false when the ring is empty.
func (r *Ring) Pop() (Desc, bool) {
	if r.Len() == 0 {
		return Desc{}, false
	}
	d := r.desc[r.cons&uint64(len(r.desc)-1)]
	r.cons++
	return d, true
}

// PopBatch dequeues up to n descriptors into out and returns the count.
func (r *Ring) PopBatch(out []Desc, n int) int {
	n = min(n, len(out), r.Len())
	for i := range n {
		out[i], _ = r.Pop()
	}
	return n
}
