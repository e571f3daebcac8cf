package afxdp

import "fmt"

// refUmem is Umem as it stood before its area was faulted in by page: one
// eager chunks*chunkSize allocation. It is kept verbatim, but for the names,
// as the reference TestUmemMatchesReference and FuzzUmemOps hold the paged
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
