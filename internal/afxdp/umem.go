package afxdp

import "fmt"

// DefaultChunkSize is the umem chunk (frame slot) size, matching
// XSK_UMEM__DEFAULT_FRAME_SIZE.
const DefaultChunkSize = 2048

// DefaultChunks is the default number of umem chunks.
const DefaultChunks = 4096

// Umem is the shared user memory region packets live in: a contiguous byte
// area divided into fixed-size chunks, addressed by byte offset, plus the
// fill and completion rings the kernel and userspace exchange ownership
// through.
type Umem struct {
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

// NewUmem builds a umem with the given chunk count and size. The chunk size
// must be a power of two, as the kernel requires of an aligned-mode umem;
// anything else is a bug in the caller.
func NewUmem(chunks, chunkSize int) *Umem {
	if chunkSize <= 0 || chunkSize&(chunkSize-1) != 0 {
		panic(fmt.Sprintf("afxdp: umem chunk size %d is not a power of two", chunkSize))
	}
	return &Umem{
		area:       make([]byte, chunks*chunkSize),
		chunkSize:  chunkSize,
		chunkMask:  uint64(chunkSize - 1),
		chunks:     chunks,
		Fill:       NewRing(DefaultRingSize),
		Completion: NewRing(DefaultRingSize),
	}
}

// ChunkSize returns the chunk size in bytes.
func (u *Umem) ChunkSize() int { return u.chunkSize }

// Chunks returns the number of chunks.
func (u *Umem) Chunks() int { return u.chunks }

// Buffer returns the memory of the chunk containing addr, trimmed to n
// bytes. It panics on an out-of-range or cross-chunk access: verified
// producers only hand out addresses from the pool and frames never exceed
// the chunk size, so either is a simulation bug — and an access running
// past the chunk end would silently alias the next chunk's packet bytes.
func (u *Umem) Buffer(addr uint64, n int) []byte {
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

// String names the mode.
func (m LockMode) String() string {
	switch m {
	case LockMutex:
		return "mutex"
	case LockSpin:
		return "spinlock"
	default:
		return "spinlock-batched"
	}
}

// Pool is the umempool of Section 3.2: the allocator that tracks which umem
// chunks are free. Any thread may need to return buffers to any pool (a
// packet received on one queue may be transmitted via another), which is
// why the pool is lock-protected in OVS; here the lock *cost* is charged by
// the PMD according to Mode, while the accounting below counts how many
// acquisitions each strategy would have performed.
type Pool struct {
	umem *Umem
	free []uint64
	// Mode is the locking strategy in force.
	Mode LockMode
	// LockAcquisitions counts lock round-trips the strategy implies.
	LockAcquisitions uint64
	// Ops counts pool operations (alloc or free of one buffer).
	Ops uint64
	// FaultExhausted, when set and returning true, makes allocations fail
	// as if every chunk were in flight — the fault-injection hook for
	// umem/chunk exhaustion. Frees still succeed, so the pool recovers the
	// moment the window closes.
	FaultExhausted func() bool
	// ExhaustionFailures counts allocations refused by the injected fault
	// (natural exhaustion shows up in the callers' fill/alloc drop
	// counters instead).
	ExhaustionFailures uint64
}

// NewPool builds a pool owning every chunk of umem.
func NewPool(umem *Umem, mode LockMode) *Pool {
	p := &Pool{umem: umem, Mode: mode, free: make([]uint64, 0, umem.Chunks())}
	for i := umem.Chunks() - 1; i >= 0; i-- {
		p.free = append(p.free, umem.ChunkAddr(i))
	}
	return p
}

// Free returns the number of free chunks.
func (p *Pool) Free() int { return len(p.free) }

// Alloc takes one chunk; ok is false when the pool is exhausted.
func (p *Pool) Alloc() (uint64, bool) {
	p.chargeLock(1)
	p.Ops++
	if p.FaultExhausted != nil && p.FaultExhausted() {
		p.ExhaustionFailures++
		return 0, false
	}
	if len(p.free) == 0 {
		return 0, false
	}
	a := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return a, true
}

// AllocBatch takes up to n chunks under a single (batched) lock round-trip.
func (p *Pool) AllocBatch(out []uint64, n int) int {
	if n > len(out) {
		n = len(out)
	}
	p.chargeLock(n)
	if p.FaultExhausted != nil && p.FaultExhausted() {
		p.ExhaustionFailures++
		return 0
	}
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
func (p *Pool) Release(addr uint64) {
	p.chargeLock(1)
	p.Ops++
	p.free = append(p.free, addr)
}

// ReleaseBatch returns several chunks under a single lock round-trip.
func (p *Pool) ReleaseBatch(addrs []uint64) {
	p.chargeLock(len(addrs))
	for _, a := range addrs {
		p.free = append(p.free, a)
		p.Ops++
	}
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
