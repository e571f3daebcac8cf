package afxdp

// XSK is an AF_XDP socket: the user/kernel interface of Figure 4. Each XSK
// binds to one (device, queue) pair and owns an rx and a tx descriptor
// ring; packet memory comes from the shared Umem.
type XSK struct {
	// ID is the value stored in the xskmap that routes XDP redirects
	// here.
	ID uint32
	// Queue is the NIC receive queue this socket is bound to.
	Queue int

	Umem *Umem
	Rx   *Ring
	Tx   *Ring

	// NeedWakeup models the XDP_USE_NEED_WAKEUP optimization: when set,
	// the kernel only drains the tx ring after a sendto() kick; when
	// clear the driver polls it. OVS uses the kick model, which is one
	// of the two overheads Section 5.5 measures.
	NeedWakeup bool
	kicked     bool

	// addrScratch is reused by ReclaimCompletions and RefillFill so the
	// per-batch address staging allocates nothing in steady state.
	addrScratch []uint64

	// Stats.
	RxDelivered    uint64 // packets the kernel delivered to the rx ring
	RxDropFill     uint64 // drops: fill ring empty
	RxDropRing     uint64 // drops: rx ring full
	RxDropOversize uint64 // drops: frame longer than a chunk (refused, not truncated)
	TxSubmitted    uint64 // descriptors userspace queued
	TxCompleted    uint64 // descriptors the kernel transmitted
	Kicks          uint64 // tx wakeup syscalls issued
	// RxDropStall is a drop class of the frozen benchmark's rx ledger
	// (benchmark/run.go). Nothing stalls a ring, so it stays zero; it goes
	// when benchmark/ is next ported.
	RxDropStall uint64
}

// NewXSK builds a socket bound to queue, sharing umem.
func NewXSK(id uint32, queue int, umem *Umem) *XSK {
	return &XSK{
		ID:         id,
		Queue:      queue,
		Umem:       umem,
		Rx:         NewRing(DefaultRingSize),
		Tx:         NewRing(DefaultRingSize),
		NeedWakeup: true,
	}
}

// KernelDeliver is the kernel-side receive path (Figure 4 paths 2-4): pop a
// buffer from the fill ring, copy the frame into it, push an rx descriptor.
// It reports whether the packet was delivered; a false return is a drop
// (a frame longer than a chunk is one, not truncated), with the reason counted.
func (x *XSK) KernelDeliver(frame []byte) bool {
	if len(frame) > x.Umem.ChunkSize() {
		x.RxDropOversize++
		return false
	}
	if x.Rx.Free() == 0 {
		x.RxDropRing++
		return false
	}
	d, ok := x.Umem.Fill.Pop()
	if !ok {
		x.RxDropFill++
		return false
	}
	copy(x.Umem.Buffer(d.Addr, len(frame)), frame)
	x.Rx.Push(Desc{Addr: d.Addr, Len: uint32(len(frame))})
	x.RxDelivered++
	return true
}

// UserReceive is the userspace receive path (Figure 4 paths 5-6): pop up to
// n rx descriptors. The caller owns the returned buffers until it returns
// them to the pool (for rx refill) or requeues them for tx.
func (x *XSK) UserReceive(out []Desc, n int) int {
	return x.Rx.PopBatch(out, n)
}

// UserTransmit queues one tx descriptor; it reports false when the tx ring
// is full (backpressure).
func (x *XSK) UserTransmit(d Desc) bool {
	if !x.Tx.Push(d) {
		return false
	}
	x.TxSubmitted++
	return true
}

// Kick is the sendto() wakeup telling the kernel to drain the tx ring. It
// reports whether a kick was actually needed (cost is only charged then).
func (x *XSK) Kick() bool {
	if !x.NeedWakeup {
		return false
	}
	x.Kicks++
	x.kicked = true
	return true
}

// KernelDrainTx is the kernel-side transmit path: pop up to n descriptors
// from the tx ring, handing each frame to emit (the NIC transmit function)
// and pushing the buffer onto the completion ring. With NeedWakeup set it
// drains only after a kick.
func (x *XSK) KernelDrainTx(n int, emit func(frame []byte)) int {
	if x.NeedWakeup && !x.kicked {
		return 0
	}
	x.kicked = false
	sent := 0
	for sent < n {
		d, ok := x.Tx.Pop()
		if !ok {
			break
		}
		emit(x.Umem.Buffer(d.Addr, int(d.Len)))
		if !x.Umem.Completion.Push(d) {
			// Completion ring full: the kernel would stall the
			// queue; we surface it as a hard error because the
			// pool sizing makes it impossible.
			panic("afxdp: completion ring overflow")
		}
		x.TxCompleted++
		sent++
	}
	return sent
}

// ReclaimCompletions returns transmitted buffers from the completion ring
// to the pool, up to n, and returns the count reclaimed.
func (x *XSK) ReclaimCompletions(pool *Pool, n int) int {
	addrs := x.addrScratch[:0]
	for len(addrs) < n {
		d, ok := x.Umem.Completion.Pop()
		if !ok {
			break
		}
		addrs = append(addrs, d.Addr)
	}
	pool.ReleaseBatch(addrs)
	x.addrScratch = addrs
	return len(addrs)
}

// RefillFill moves up to n free buffers from the pool to the fill ring so
// the kernel can receive into them. It returns the number refilled.
func (x *XSK) RefillFill(pool *Pool, n int) int {
	n = min(n, x.Umem.Fill.Free())
	if cap(x.addrScratch) < n {
		x.addrScratch = make([]uint64, n)
	}
	addrs := x.addrScratch[:n]
	got := pool.AllocBatch(addrs, n)
	for _, a := range addrs[:got] {
		x.Umem.Fill.Push(Desc{Addr: a})
	}
	return got
}
