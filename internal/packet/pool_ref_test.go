package packet

// refPool is Pool as it stood before metadata grew by chunk and buffers
// arrived on first use: NewPool made one eager array of n packets and carved
// every packet's buffer out of one eager n*bufSize allocation. It is kept
// verbatim, but for the names and two things: a packet's pool link is typed
// *Pool, so the reference leaves it nil and tests return its packets with
// put rather than Packet.Release; and Get, the aliasing acquisition deleted
// with it, is not kept.
type refPool struct {
	backing []Packet
	free    []*Packet
	// Preallocated selects the O4 code path.
	Preallocated bool
	// Allocs counts packet acquisitions that fell back to the heap.
	Allocs uint64
}

// newRefPool builds a pool of n packets with bufSize-byte buffers.
// preallocated selects the O4 contiguous-array behaviour.
func newRefPool(n, bufSize int, preallocated bool) *refPool {
	p := &refPool{Preallocated: preallocated}
	if preallocated {
		p.backing = make([]Packet, n)
		buffers := make([]byte, n*bufSize)
		p.free = make([]*Packet, n)
		for i := range p.backing {
			pkt := &p.backing[i]
			pkt.Data = buffers[i*bufSize : i*bufSize : (i+1)*bufSize]
			pkt.Metadata = Metadata{L3Offset: -1, L4Offset: -1}
			pkt.pooled = true
			p.free[i] = pkt
		}
	}
	return p
}

// GetCopy acquires a packet whose Data is always a private copy of buf,
// including on the heap-fallback path. Use it when buf is owned by the
// caller and reused afterwards (a umem chunk about to be recycled, a
// generator's frame template) — plain Get would alias it.
func (p *refPool) GetCopy(buf []byte) *Packet {
	if p.Preallocated && len(p.free) > 0 {
		pkt := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		pkt.inFree = false
		pkt.ResetMetadata()
		if cap(pkt.Data) >= len(buf) {
			pkt.Data = pkt.Data[:len(buf)]
		} else {
			pkt.Data = make([]byte, len(buf))
		}
		copy(pkt.Data, buf)
		return pkt
	}
	p.Allocs++
	pkt := New(append(make([]byte, 0, len(buf)), buf...))
	return pkt
}

// put returns a packet to the free list (only pool-backed packets;
// heap-allocated overflow packets are left for the GC).
func (p *refPool) put(pkt *Packet) {
	if pkt.pooled && !pkt.inFree {
		pkt.inFree = true
		p.free = append(p.free, pkt)
	}
}

// Available returns the number of pooled packets currently free.
func (p *refPool) Available() int { return len(p.free) }
