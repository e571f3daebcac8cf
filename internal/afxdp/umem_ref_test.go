package afxdp

import "fmt"

// refUmem is Umem as it stood before its area was held by frame: one eager
// chunks*chunkSize allocation. It is kept verbatim, but for the names, as the
// reference TestUmemMatchesReference and FuzzUmemOps hold the frame-sized
// Umem to.
type refUmem struct {
	area      []byte
	chunkSize int
	chunkMask uint64 // chunkSize - 1
	chunks    int

	// Fill carries empty buffers from userspace to the kernel (rx path
	// 1 in Figure 4); Completion returns transmitted buffers from the
	// kernel to userspace.
	Fill       *Ring
	Completion *Ring
}

// newRefUmem builds a umem with the given chunk count and size. The chunk size
// must be a power of two, as the kernel requires of an aligned-mode umem;
// anything else is a bug in the caller.
func newRefUmem(chunks, chunkSize int) *refUmem {
	if chunkSize <= 0 || chunkSize&(chunkSize-1) != 0 {
		panic(fmt.Sprintf("afxdp: umem chunk size %d is not a power of two", chunkSize))
	}
	return &refUmem{
		area:       make([]byte, chunks*chunkSize),
		chunkSize:  chunkSize,
		chunkMask:  uint64(chunkSize - 1),
		chunks:     chunks,
		Fill:       NewRing(DefaultRingSize),
		Completion: NewRing(DefaultRingSize),
	}
}

// ChunkSize returns the chunk size in bytes.
func (u *refUmem) ChunkSize() int { return u.chunkSize }

// Chunks returns the number of chunks.
func (u *refUmem) Chunks() int { return u.chunks }

// Buffer returns the memory of the chunk containing addr, trimmed to n
// bytes. It panics on an out-of-range or cross-chunk access: verified
// producers only hand out addresses from the pool and frames never exceed
// the chunk size, so either is a simulation bug — and an access running
// past the chunk end would silently alias the next chunk's packet bytes.
func (u *refUmem) Buffer(addr uint64, n int) []byte {
	if n < 0 {
		panic(fmt.Sprintf("afxdp: negative umem access length %d", n))
	}
	if addr >= uint64(len(u.area)) {
		panic(fmt.Sprintf("afxdp: umem address %d beyond area %d", addr, len(u.area)))
	}
	off := addr & u.chunkMask
	if uint64(n) > uint64(u.chunkSize)-off {
		panic(fmt.Sprintf("afxdp: umem access [%d,+%d) crosses chunk boundary (chunk size %d, offset %d)",
			addr, n, u.chunkSize, off))
	}
	return u.area[addr : addr+uint64(n)]
}

// ChunkAddr returns the base address of chunk i.
func (u *refUmem) ChunkAddr(i int) uint64 { return uint64(i * u.chunkSize) }

// refUmemPool is Pool as it stood before it kept only released chunks:
// NewPool filled a free list with every chunk's address at once. It is kept
// verbatim, but for the names, as the reference TestUmemPoolMatchesReference
// holds Pool to.
type refUmemPool struct {
	umem *Umem
	free []uint64
	// Mode is the locking strategy in force.
	Mode LockMode
	// LockAcquisitions counts lock round-trips the strategy implies.
	LockAcquisitions uint64
	// Ops counts pool operations (alloc or free of one buffer).
	Ops uint64
}

// newRefUmemPool builds a pool owning every chunk of umem.
func newRefUmemPool(umem *Umem, mode LockMode) *refUmemPool {
	p := &refUmemPool{umem: umem, Mode: mode, free: make([]uint64, 0, umem.Chunks())}
	for i := umem.Chunks() - 1; i >= 0; i-- {
		p.free = append(p.free, umem.ChunkAddr(i))
	}
	return p
}

// Free returns the number of free chunks.
func (p *refUmemPool) Free() int { return len(p.free) }

// Alloc takes one chunk; ok is false when the pool is exhausted.
func (p *refUmemPool) Alloc() (uint64, bool) {
	p.chargeLock(1)
	p.Ops++
	if len(p.free) == 0 {
		return 0, false
	}
	a := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return a, true
}

// AllocBatch takes up to n chunks under a single (batched) lock round-trip.
func (p *refUmemPool) AllocBatch(out []uint64, n int) int {
	if n > len(out) {
		n = len(out)
	}
	p.chargeLock(n)
	got := 0
	for got < n && len(p.free) > 0 {
		out[got] = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		got++
		p.Ops++
	}
	return got
}

// Release returns one chunk to the pool.
func (p *refUmemPool) Release(addr uint64) {
	p.chargeLock(1)
	p.Ops++
	p.free = append(p.free, addr)
}

// ReleaseBatch returns several chunks under a single lock round-trip.
func (p *refUmemPool) ReleaseBatch(addrs []uint64) {
	p.chargeLock(len(addrs))
	for _, a := range addrs {
		p.free = append(p.free, a)
		p.Ops++
	}
}

// chargeLock accounts the number of lock acquisitions an n-operation step
// costs under the current mode: one per operation for the per-packet modes,
// one per batch for the batched mode.
func (p *refUmemPool) chargeLock(n int) {
	if n <= 0 {
		return
	}
	if p.Mode == LockSpinBatched {
		p.LockAcquisitions++
	} else {
		p.LockAcquisitions += uint64(n)
	}
}
