package afxdp

import (
	"fmt"
	"math/bits"
)

// DefaultChunkSize is the umem chunk (frame slot) size, matching
// XSK_UMEM__DEFAULT_FRAME_SIZE.
const DefaultChunkSize = 2048

// DefaultChunks is the default number of umem chunks.
const DefaultChunks = 4096

// minChunkBytes is the least a touched chunk holds; see Umem.
const minChunkBytes = 64

// Umem is the shared user memory region packets live in: a byte area
// divided into fixed-size chunks, addressed by byte offset, plus the fill
// and completion rings the kernel and userspace exchange ownership through.
// A chunk holds the bytes its frames reached, rounded up to a power of two
// from minChunkBytes to the chunk size: the fill ring keeps a thousand
// chunks posted, and a small frame must not pin a whole slot in each.
type Umem struct {
	chunks     [][]byte // chunk i's bytes from its base; nil or absent until touched
	size       uint64   // area length in bytes
	chunkSize  int
	chunkShift uint
	chunkMask  uint64 // chunkSize - 1

	// Fill carries empty buffers from userspace to the kernel (rx path
	// 1 in Figure 4); Completion returns transmitted buffers from the
	// kernel to userspace.
	Fill       *Ring
	Completion *Ring
}

// NewUmem builds a umem with the given chunk count and size. The chunk size
// must be a power of two, as the kernel requires of an aligned-mode umem;
// anything else is a bug in the caller.
func NewUmem(chunks, chunkSize int) *Umem {
	if chunkSize <= 0 || chunkSize&(chunkSize-1) != 0 {
		panic(fmt.Sprintf("afxdp: umem chunk size %d is not a power of two", chunkSize))
	}
	return &Umem{
		size:       uint64(chunks * chunkSize),
		chunkSize:  chunkSize,
		chunkShift: uint(bits.TrailingZeros(uint(chunkSize))),
		chunkMask:  uint64(chunkSize - 1),
		Fill:       NewRing(DefaultRingSize),
		Completion: NewRing(DefaultRingSize),
	}
}

// ChunkSize returns the chunk size in bytes.
func (u *Umem) ChunkSize() int { return u.chunkSize }

// Chunks returns the number of chunks.
func (u *Umem) Chunks() int { return int(u.size >> u.chunkShift) }

// Buffer returns the memory of the chunk containing addr, trimmed to n bytes.
// A chunk's bytes are made on first touch and grown, prefix kept, by an
// access reaching past them; bytes never written read as zero. It panics on
// an out-of-range or cross-chunk access: either is a simulation bug, and an
// access running past the chunk end would silently alias the next chunk's
// packet bytes.
func (u *Umem) Buffer(addr uint64, n int) []byte {
	if n < 0 {
		panic(fmt.Sprintf("afxdp: negative umem access length %d", n))
	}
	if addr >= u.size {
		panic(fmt.Sprintf("afxdp: umem address %d beyond area %d", addr, u.size))
	}
	off := addr & u.chunkMask
	if uint64(n) > uint64(u.chunkSize)-off {
		panic(fmt.Sprintf("afxdp: umem access [%d,+%d) crosses chunk boundary (chunk size %d, offset %d)",
			addr, n, u.chunkSize, off))
	}
	i, end := int(addr>>u.chunkShift), int(off)+n
	if i >= len(u.chunks) || len(u.chunks[i]) < end {
		u.grow(i, end)
	}
	return u.chunks[i][off:end]
}

// grow makes chunk i hold at least its first end bytes.
func (u *Umem) grow(i, end int) {
	if i >= len(u.chunks) {
		u.chunks = append(u.chunks, make([][]byte, i+1-len(u.chunks))...)
	}
	b := make([]byte, min(u.chunkSize, max(minChunkBytes, 1<<bits.Len(uint(end-1)))))
	copy(b, u.chunks[i])
	u.chunks[i] = b
}

// ChunkAddr returns the base address of chunk i.
func (u *Umem) ChunkAddr(i int) uint64 { return uint64(i * u.chunkSize) }

// LockMode selects the umempool synchronization strategy, the subject of
// optimizations O2 and O3.
type LockMode int

// Lock modes, in the order the paper improved them.
const (
	// LockMutex guards every pool operation with a pthread-style mutex
	// (pre-O2: ~5% of CPU in pthread_mutex_lock, possible context
	// switch).
	LockMutex LockMode = iota
	// LockSpin uses a spinlock per operation (O2).
	LockSpin
	// LockSpinBatched uses one spinlock acquisition per batch of
	// operations (O3).
	LockSpinBatched
)

// Pool is the umempool of Section 3.2: the allocator that tracks which umem
// chunks are free. Any thread may need to return buffers to any pool (a
// packet received on one queue may be transmitted via another), which is
// why the pool is lock-protected in OVS; here the lock *cost* is charged by
// the PMD according to Mode, while the accounting below counts how many
// acquisitions each strategy would have performed.
type Pool struct {
	umem *Umem
	// released stacks the chunks given back; chunks next and above were
	// never handed out. Alloc takes the top of released, else chunk next.
	released []uint64
	next     int
	// Mode is the locking strategy in force.
	Mode LockMode
	// LockAcquisitions counts lock round-trips the strategy implies.
	LockAcquisitions uint64
	// Ops counts pool operations (alloc or free of one buffer).
	Ops uint64
}

// NewPool builds a pool owning every chunk of umem.
func NewPool(umem *Umem, mode LockMode) *Pool {
	return &Pool{umem: umem, Mode: mode}
}

// Free returns the number of free chunks.
func (p *Pool) Free() int { return len(p.released) + p.umem.Chunks() - p.next }

// take hands out one free chunk; ok is false when there is none.
func (p *Pool) take() (uint64, bool) {
	if n := len(p.released); n > 0 {
		a := p.released[n-1]
		p.released = p.released[:n-1]
		return a, true
	}
	if p.next == p.umem.Chunks() {
		return 0, false
	}
	p.next++
	return p.umem.ChunkAddr(p.next - 1), true
}

// Alloc takes one chunk; ok is false when the pool is exhausted.
func (p *Pool) Alloc() (uint64, bool) {
	p.chargeLock(1)
	p.Ops++
	return p.take()
}

// AllocBatch takes up to n chunks under a single (batched) lock round-trip.
func (p *Pool) AllocBatch(out []uint64, n int) int {
	n = min(n, len(out))
	p.chargeLock(n)
	got := 0
	for ; got < n; got++ {
		a, ok := p.take()
		if !ok {
			break
		}
		out[got] = a
		p.Ops++
	}
	return got
}

// Release returns one chunk to the pool.
func (p *Pool) Release(addr uint64) { p.ReleaseBatch([]uint64{addr}) }

// ReleaseBatch returns several chunks under a single lock round-trip.
func (p *Pool) ReleaseBatch(addrs []uint64) {
	p.chargeLock(len(addrs))
	p.released = append(p.released, addrs...)
	p.Ops += uint64(len(addrs))
}

// chargeLock accounts the number of lock acquisitions an n-operation step
// costs under the current mode: one per operation for the per-packet modes,
// one per batch for the batched mode.
func (p *Pool) chargeLock(n int) {
	if n <= 0 {
		return
	}
	if p.Mode == LockSpinBatched {
		p.LockAcquisitions++
	} else {
		p.LockAcquisitions += uint64(n)
	}
}
