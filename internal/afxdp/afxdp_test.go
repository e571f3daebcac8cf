package afxdp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRingPushPop(t *testing.T) {
	r := NewRing(4)
	if r.Cap() != 4 || r.Len() != 0 || r.Free() != 4 {
		t.Fatalf("fresh ring: cap %d len %d free %d", r.Cap(), r.Len(), r.Free())
	}
	for i := 0; i < 4; i++ {
		if !r.Push(Desc{Addr: uint64(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Push(Desc{}) {
		t.Fatal("full ring must reject push")
	}
	for i := 0; i < 4; i++ {
		d, ok := r.Pop()
		if !ok || d.Addr != uint64(i) {
			t.Fatalf("pop %d = %+v, %v", i, d, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("empty ring must reject pop")
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for cycle := 0; cycle < 10; cycle++ {
		for i := 0; i < 3; i++ {
			if !r.Push(Desc{Addr: uint64(cycle*10 + i)}) {
				t.Fatal("push failed during wraparound")
			}
		}
		for i := 0; i < 3; i++ {
			d, ok := r.Pop()
			if !ok || d.Addr != uint64(cycle*10+i) {
				t.Fatalf("wraparound FIFO violated: %+v", d)
			}
		}
	}
}

func TestRingSizeRounding(t *testing.T) {
	if NewRing(5).Cap() != 8 {
		t.Fatal("size must round up to a power of two")
	}
}

func TestRingPopBatch(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Push(Desc{Addr: uint64(i)})
	}
	out := make([]Desc, 8)
	if n := r.PopBatch(out, 3); n != 3 {
		t.Fatalf("batch = %d, want 3", n)
	}
	if n := r.PopBatch(out, 8); n != 2 {
		t.Fatalf("drain = %d, want 2", n)
	}
}

func TestRingFIFOProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		r := NewRing(DefaultRingSize)
		if len(vals) > r.Cap() {
			vals = vals[:r.Cap()]
		}
		for _, v := range vals {
			r.Push(Desc{Addr: v})
		}
		for _, v := range vals {
			d, ok := r.Pop()
			if !ok || d.Addr != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUmemBuffer(t *testing.T) {
	u := NewUmem(4, 256)
	b := u.Buffer(u.ChunkAddr(2), 16)
	b[0] = 0xaa
	if u.Buffer(u.ChunkAddr(2), 1)[0] != 0xaa {
		t.Fatal("buffer must alias the umem area")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access must panic")
		}
	}()
	u.Buffer(u.ChunkAddr(3), 512)
}

// Regression: Buffer only checked the area end, so an access longer than
// the chunk silently returned bytes of the *next* chunk (cross-chunk
// packet corruption). It must panic instead.
func TestUmemBufferCrossChunkPanics(t *testing.T) {
	u := NewUmem(4, 256)
	// Mark the start of chunk 2; a buggy Buffer would expose it through a
	// long access rooted in chunk 1.
	u.Buffer(u.ChunkAddr(2), 1)[0] = 0x5a
	defer func() {
		if recover() == nil {
			t.Fatal("access crossing a chunk boundary must panic")
		}
	}()
	u.Buffer(u.ChunkAddr(1), 257)
}

func TestUmemBufferCrossChunkOffsetPanics(t *testing.T) {
	u := NewUmem(4, 256)
	defer func() {
		if recover() == nil {
			t.Fatal("offset access running past the chunk end must panic")
		}
	}()
	// Within the area, within one chunk length, but crossing into chunk 1.
	u.Buffer(u.ChunkAddr(0)+200, 100)
}

func TestUmemBufferWholeChunkAllowed(t *testing.T) {
	u := NewUmem(4, 256)
	if got := len(u.Buffer(u.ChunkAddr(1), 256)); got != 256 {
		t.Fatalf("whole-chunk access returned %d bytes", got)
	}
}

func TestUmemBufferNegativeLengthPanics(t *testing.T) {
	u := NewUmem(4, 256)
	defer func() {
		if recover() == nil {
			t.Fatal("negative length must panic, not alias earlier memory")
		}
	}()
	u.Buffer(u.ChunkAddr(1), -1)
}

// umemAccess is one Buffer call; a write then fills the returned slice.
type umemAccess struct {
	addr  uint64
	n     int
	write bool
	pat   byte
}

// try makes the access through buffer and returns a copy of the bytes it
// saw, or the panic it raised.
func (a umemAccess) try(buffer func(uint64, int) []byte) (got []byte, panicked string) {
	defer func() {
		if v := recover(); v != nil {
			panicked = fmt.Sprint(v)
		}
	}()
	b := buffer(a.addr, a.n)
	if a.write {
		for i := range b {
			b[i] = a.pat + byte(i)
		}
	}
	return append([]byte{}, b...), ""
}

// checkAccess makes a on both umems and requires the same bytes or the same
// panic.
func checkAccess(t testing.TB, u *Umem, ref *refUmem, a umemAccess) {
	t.Helper()
	got, gotPanic := a.try(u.Buffer)
	want, wantPanic := a.try(ref.Buffer)
	if gotPanic != wantPanic || !bytes.Equal(got, want) {
		t.Fatalf("Buffer(%d, %d) write=%v: got % x panic %q, reference % x panic %q",
			a.addr, a.n, a.write, got, gotPanic, want, wantPanic)
	}
}

// checkWholeArea reads every chunk of both umems whole.
func checkWholeArea(t testing.TB, u *Umem, ref *refUmem) {
	t.Helper()
	for c := 0; c < ref.Chunks(); c++ {
		checkAccess(t, u, ref, umemAccess{addr: ref.ChunkAddr(c), n: ref.ChunkSize()})
	}
}

// TestUmemMatchesReference drives the frame-sized umem and the eager
// reference (umem_ref_test.go) with the same seeded streams of writes and
// reads, at chunk sizes from 64 bytes to 128 KiB, at random chunks, offsets
// and lengths — short accesses followed by longer ones into the same chunk
// among them — including whole-chunk, chunk-end, cross-chunk, past-the-area
// and negative-length accesses. Every access must return the same bytes or
// panic with the same message, and the whole areas must agree at the end.
func TestUmemMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chunkSize := 64 << rng.Intn(12)
		chunks := 1 + rng.Intn(max(2, (1<<20)/chunkSize))
		u, ref := NewUmem(chunks, chunkSize), newRefUmem(chunks, chunkSize)
		for step := 0; step < 400; step++ {
			checkAccess(t, u, ref, randomAccess(rng, chunks, chunkSize))
		}
		checkWholeArea(t, u, ref)
	}
}

// randomAccess draws an access aimed at the edges that matter: chunk and
// area ends, the last chunks again and again, and lengths either side of
// what the chunk has left.
func randomAccess(rng *rand.Rand, chunks, chunkSize int) umemAccess {
	c := rng.Intn(chunks + 2) // chunks and chunks+1 lie past the area
	if rng.Intn(4) == 0 {
		c = chunks - 1 - rng.Intn(min(chunks, 2))
	}
	off := []int{0, 0, rng.Intn(chunkSize), chunkSize - 1}[rng.Intn(4)]
	left := chunkSize - off
	n := []int{0, 1, left, left, left + 1, chunkSize, rng.Intn(left + 1), -1 - rng.Intn(100)}[rng.Intn(8)]
	addr := uint64(c*chunkSize + off)
	if rng.Intn(50) == 0 {
		addr = ^uint64(0) - uint64(rng.Intn(4))
	}
	return umemAccess{addr: addr, n: n, write: rng.Intn(2) == 0, pat: byte(rng.Intn(256))}
}

// FuzzUmemOps: the first two bytes pick the chunk size (64 B to 128 KiB)
// and count, each following six an access (flags, chunk, offset, length);
// the frame-sized umem must agree with the reference on every access and on the
// whole area at the end.
func FuzzUmemOps(f *testing.F) {
	f.Add([]byte{5, 3, 1, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 8})
	f.Add([]byte{0, 200, 1, 199, 63, 0, 2, 0, 0, 200, 0, 0, 255, 255})
	f.Add([]byte{11, 4, 3, 1, 255, 255, 1, 0, 0, 5, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		chunkSize := 64 << (data[0] % 12)
		chunks := 1 + int(data[1])%max(2, (1<<20)/chunkSize)
		u, ref := NewUmem(chunks, chunkSize), newRefUmem(chunks, chunkSize)
		for ops := data[2:]; len(ops) >= 6; ops = ops[6:] {
			c := int(ops[1]) % (chunks + 2)
			off := int(binary.LittleEndian.Uint16(ops[2:])) % chunkSize
			n := int(int16(binary.LittleEndian.Uint16(ops[4:])))
			if ops[0]&2 != 0 { // a length relative to what the chunk has left
				n = chunkSize - off + n%4
			}
			checkAccess(t, u, ref, umemAccess{addr: uint64(c*chunkSize + off), n: n,
				write: ops[0]&1 != 0, pat: ops[0]})
		}
		checkWholeArea(t, u, ref)
	})
}

// umemHeld is the bytes u's chunks hold and the length of its index.
func umemHeld(u *Umem) (bytes, index int) {
	for _, c := range u.chunks {
		bytes += cap(c)
	}
	return bytes, len(u.chunks)
}

// TestUmemHoldsItsFrames: a umem chunk holds the bytes its frames reached,
// rounded up to a power of two from 64 bytes to the chunk size, and the
// index reaches the highest chunk touched.
func TestUmemHoldsItsFrames(t *testing.T) {
	u := NewUmem(DefaultChunks, DefaultChunkSize)
	if b, idx := umemHeld(u); b != 0 || idx != 0 {
		t.Fatalf("a fresh umem holds %d bytes over an index of %d chunks, want none", b, idx)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	frame := bytes.Repeat([]byte{0x5a}, 60)
	const frames = 1024
	for c := 0; c < frames; c++ {
		copy(u.Buffer(u.ChunkAddr(c), len(frame)), frame)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap := int(ms.HeapAlloc - before)
	b, idx := umemHeld(u)
	if b != frames*64 || idx != frames {
		t.Fatalf("%d 60-byte frames: %d bytes over an index of %d chunks, want %d over %d",
			frames, b, idx, frames*64, frames)
	}
	if limit := frames*64 + cap(u.chunks)*int(unsafe.Sizeof([]byte{})); heap > limit {
		t.Fatalf("%d 60-byte frames grew the heap %d bytes, want at most %d (64 B each plus the index)",
			frames, heap, limit)
	}
	t.Logf("%d 60-byte frames: %d bytes of chunks, %d of live heap", frames, b, heap)

	big := bytes.Repeat([]byte{0xa5}, 1500)
	copy(u.Buffer(u.ChunkAddr(7)+60, len(big)-60), big[60:])
	if got := u.Buffer(u.ChunkAddr(7), len(big)); !bytes.Equal(got[:60], frame) || !bytes.Equal(got[60:], big[60:]) {
		t.Fatal("a 1,500-byte frame written past a 60-byte one lost the prefix")
	}
	if got := u.Buffer(u.ChunkAddr(7)+1500, DefaultChunkSize-1500); !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("bytes past the furthest write do not read as zero")
	}
	if len(u.chunks[7]) != DefaultChunkSize {
		t.Fatalf("chunk 7 holds %d bytes after a 1,500-byte frame, want %d", len(u.chunks[7]), DefaultChunkSize)
	}
	u.Buffer(u.ChunkAddr(DefaultChunks-1)+100, 100)
	if b, idx := umemHeld(u); idx != DefaultChunks || len(u.chunks[DefaultChunks-1]) != 256 {
		t.Fatalf("200 bytes into the last chunk: index %d, chunk %d bytes (%d in all), want %d and 256",
			idx, len(u.chunks[DefaultChunks-1]), b, DefaultChunks)
	}

	for _, size := range []int{16, 64, 4096} {
		small := NewUmem(2, size)
		small.Buffer(small.ChunkAddr(1), 1)
		small.Buffer(small.ChunkAddr(0), size)
		if b, _ := umemHeld(small); len(small.chunks[1]) != min(size, 64) || b != size+min(size, 64) {
			t.Fatalf("%d-byte chunks: one byte holds %d, the whole chunk %d", size, len(small.chunks[1]), len(small.chunks[0]))
		}
	}
}

func TestPoolAllocRelease(t *testing.T) {
	u := NewUmem(8, 128)
	p := NewPool(u, LockSpin)
	if p.Free() != 8 {
		t.Fatalf("free = %d", p.Free())
	}
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		a, ok := p.Alloc()
		if !ok {
			t.Fatal("alloc failed with free chunks")
		}
		if seen[a] {
			t.Fatal("double allocation of a chunk")
		}
		seen[a] = true
	}
	if _, ok := p.Alloc(); ok {
		t.Fatal("exhausted pool must fail")
	}
	for a := range seen {
		p.Release(a)
	}
	if p.Free() != 8 {
		t.Fatal("release must return chunks")
	}
}

func TestPoolLockAccounting(t *testing.T) {
	u := NewUmem(64, 128)

	perPkt := NewPool(u, LockSpin)
	out := make([]uint64, 32)
	perPkt.AllocBatch(out, 32)
	if perPkt.LockAcquisitions != 32 {
		t.Fatalf("per-packet locking: %d acquisitions, want 32", perPkt.LockAcquisitions)
	}

	batched := NewPool(NewUmem(64, 128), LockSpinBatched)
	batched.AllocBatch(out, 32)
	if batched.LockAcquisitions != 1 {
		t.Fatalf("batched locking: %d acquisitions, want 1", batched.LockAcquisitions)
	}
	batched.ReleaseBatch(out[:32])
	if batched.LockAcquisitions != 2 {
		t.Fatalf("batched release: %d acquisitions, want 2", batched.LockAcquisitions)
	}
}

func TestXSKReceivePath(t *testing.T) {
	u := NewUmem(16, 256)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)
	x.RefillFill(p, 8)
	if u.Fill.Len() != 8 {
		t.Fatalf("fill ring = %d", u.Fill.Len())
	}

	frame := bytes.Repeat([]byte{0x5a}, 64)
	if !x.KernelDeliver(frame) {
		t.Fatal("deliver failed with fill buffers available")
	}
	out := make([]Desc, 4)
	n := x.UserReceive(out, 4)
	if n != 1 {
		t.Fatalf("received %d", n)
	}
	got := u.Buffer(out[0].Addr, int(out[0].Len))
	if !bytes.Equal(got, frame) {
		t.Fatal("frame bytes corrupted through umem")
	}
	if x.RxDelivered != 1 {
		t.Fatalf("stats: %d delivered", x.RxDelivered)
	}
}

func TestXSKDropWhenFillEmpty(t *testing.T) {
	u := NewUmem(16, 256)
	x := NewXSK(1, 0, u)
	// No refill: fill ring empty.
	if x.KernelDeliver(make([]byte, 64)) {
		t.Fatal("deliver must fail with empty fill ring")
	}
	if x.RxDropFill != 1 {
		t.Fatalf("drop not counted: %+v", x)
	}
}

// A frame longer than a chunk is refused and counted, not truncated into
// one; the fill buffer stays for the next frame.
func TestXSKRefusesOversizeFrame(t *testing.T) {
	u := NewUmem(16, 2048)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)
	x.RefillFill(p, 1)
	if x.KernelDeliver(make([]byte, 3000)) {
		t.Fatal("a 3000-byte frame was delivered into 2048-byte chunks")
	}
	if x.RxDropOversize != 1 || x.Rx.Len() != 0 || u.Fill.Len() != 1 {
		t.Fatalf("oversize drops %d, rx ring %d, fill ring %d; want 1, 0, 1", x.RxDropOversize, x.Rx.Len(), u.Fill.Len())
	}
	if !x.KernelDeliver(make([]byte, 2048)) {
		t.Fatal("a whole-chunk frame must still be delivered")
	}
}

func TestXSKDropWhenRxFull(t *testing.T) {
	u := NewUmem(DefaultRingSize*2+64, 64)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)
	// Keep the fill ring topped up and never consume rx.
	frame := make([]byte, 60)
	delivered := 0
	for i := 0; i < DefaultRingSize+10; i++ {
		x.RefillFill(p, 4)
		if x.KernelDeliver(frame) {
			delivered++
		}
	}
	if delivered != DefaultRingSize {
		t.Fatalf("delivered %d, want %d (rx ring bound)", delivered, DefaultRingSize)
	}
	if x.RxDropRing == 0 {
		t.Fatal("rx-full drops must be counted")
	}
}

func TestXSKTransmitPath(t *testing.T) {
	u := NewUmem(16, 256)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)

	addr, _ := p.Alloc()
	copy(u.Buffer(addr, 4), []byte{1, 2, 3, 4})
	if !x.UserTransmit(Desc{Addr: addr, Len: 4}) {
		t.Fatal("transmit enqueue failed")
	}

	// NeedWakeup: no drain before the kick.
	var sent [][]byte
	emit := func(f []byte) { sent = append(sent, append([]byte(nil), f...)) }
	if n := x.KernelDrainTx(8, emit); n != 0 {
		t.Fatalf("drained %d before kick", n)
	}
	if !x.Kick() {
		t.Fatal("kick must be needed")
	}
	if n := x.KernelDrainTx(8, emit); n != 1 {
		t.Fatalf("drained %d after kick", n)
	}
	if len(sent) != 1 || !bytes.Equal(sent[0], []byte{1, 2, 3, 4}) {
		t.Fatalf("emitted %v", sent)
	}

	// Completion ring now holds the buffer; reclaim it.
	free := p.Free()
	if got := x.ReclaimCompletions(p, 8); got != 1 {
		t.Fatalf("reclaimed %d", got)
	}
	if p.Free() != free+1 {
		t.Fatal("completion reclaim must return the chunk")
	}
}

func TestXSKNoWakeupMode(t *testing.T) {
	u := NewUmem(16, 256)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)
	x.NeedWakeup = false
	addr, _ := p.Alloc()
	x.UserTransmit(Desc{Addr: addr, Len: 8})
	if x.Kick() {
		t.Fatal("kick must be unnecessary in no-wakeup mode")
	}
	if n := x.KernelDrainTx(8, func([]byte) {}); n != 1 {
		t.Fatalf("no-wakeup drain = %d", n)
	}
}

func TestXSKRefillBoundedByFillRing(t *testing.T) {
	u := NewUmem(DefaultRingSize*4, 64)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)
	n := x.RefillFill(p, DefaultRingSize*2)
	if n != DefaultRingSize {
		t.Fatalf("refill = %d, want fill-ring capacity %d", n, DefaultRingSize)
	}
}

func TestRoundTripForwarding(t *testing.T) {
	// Simulate the forwarding loop: receive, process, transmit the same
	// buffer, reclaim, refill — chunk count must stay conserved.
	u := NewUmem(64, 256)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)
	x.RefillFill(p, 32)

	total := func() int { return p.Free() + u.Fill.Len() + x.Rx.Len() + x.Tx.Len() + u.Completion.Len() }
	start := total()

	frame := make([]byte, 60)
	for round := 0; round < 100; round++ {
		if !x.KernelDeliver(frame) {
			t.Fatalf("round %d: deliver failed", round)
		}
		out := make([]Desc, 1)
		if x.UserReceive(out, 1) != 1 {
			t.Fatalf("round %d: receive failed", round)
		}
		if !x.UserTransmit(out[0]) {
			t.Fatalf("round %d: transmit failed", round)
		}
		x.Kick()
		x.KernelDrainTx(1, func([]byte) {})
		x.ReclaimCompletions(p, 4)
		x.RefillFill(p, 1)
		if got := total(); got != start {
			t.Fatalf("round %d: chunk leak: %d != %d", round, got, start)
		}
	}
	if x.TxCompleted != 100 || x.RxDelivered != 100 {
		t.Fatalf("stats: rx=%d tx=%d", x.RxDelivered, x.TxCompleted)
	}
}

// TestRingMatchesReference drives the growing ring and the eager reference
// (ring_ref_test.go) with the same seeded streams of pushes, pops and batch
// pops, at capacities from 1 to 4,096 and fill levels up to full: every
// operation must return the same result, and Len, Free and Cap must agree
// after each.
func TestRingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(1<<rng.Intn(13))
		r, ref := NewRing(size), newRefRing(size)
		out, refOut := make([]Desc, 64), make([]Desc, 64)
		pushes := 8 + rng.Intn(6) // of 16: from mostly empty to mostly full
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(16); {
			case op < pushes:
				d := Desc{Addr: rng.Uint64(), Len: rng.Uint32()}
				if got, want := r.Push(d), ref.Push(d); got != want {
					t.Fatalf("seed %d step %d: Push = %v, reference %v", seed, step, got, want)
				}
			case op == 15:
				n := rng.Intn(9)
				if rng.Intn(8) == 0 {
					n = rng.Intn(len(out) + 8)
				}
				got, want := r.PopBatch(out, n), ref.PopBatch(refOut, n)
				if got != want || !slices.Equal(out[:got], refOut[:want]) {
					t.Fatalf("seed %d step %d: PopBatch(%d) = %v, reference %v", seed, step, n, out[:got], refOut[:want])
				}
			default:
				d, ok := r.Pop()
				rd, rok := ref.Pop()
				if d != rd || ok != rok {
					t.Fatalf("seed %d step %d: Pop = %+v %v, reference %+v %v", seed, step, d, ok, rd, rok)
				}
			}
			if r.Len() != ref.Len() || r.Free() != ref.Free() || r.Cap() != ref.Cap() {
				t.Fatalf("seed %d step %d: len/free/cap %d/%d/%d, reference %d/%d/%d",
					seed, step, r.Len(), r.Free(), r.Cap(), ref.Len(), ref.Free(), ref.Cap())
			}
		}
		if len(r.desc) > r.Cap() {
			t.Fatalf("seed %d: backing array of %d for a ring of %d", seed, len(r.desc), r.Cap())
		}
	}
}

// TestUmemPoolMatchesReference drives the pool and the eager reference
// (umem_ref_test.go) with the same seeded streams of single and batched
// allocations and releases — of held chunks, and now and then a double
// release — under each lock mode: both must hand out the same addresses in
// the same order, and agree on Free, Ops and LockAcquisitions after every
// step.
func TestUmemPoolMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chunks := 1 + rng.Intn(300)
		mode := LockMode(rng.Intn(3))
		u := NewUmem(chunks, 64)
		p, ref := NewPool(u, mode), newRefUmemPool(u, mode)
		var held []uint64
		out, refOut := make([]uint64, 40), make([]uint64, 40)
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op <= 3:
				a, ok := p.Alloc()
				ra, rok := ref.Alloc()
				if a != ra || ok != rok {
					t.Fatalf("seed %d step %d: Alloc = %d %v, reference %d %v", seed, step, a, ok, ra, rok)
				}
				if ok {
					held = append(held, a)
				}
			case op <= 5:
				n := rng.Intn(len(out) + 4)
				got, want := p.AllocBatch(out, n), ref.AllocBatch(refOut, n)
				if got != want || !slices.Equal(out[:got], refOut[:want]) {
					t.Fatalf("seed %d step %d: AllocBatch(%d) = %v, reference %v", seed, step, n, out[:got], refOut[:want])
				}
				held = append(held, out[:got]...)
			case op <= 7 && len(held) > 0:
				i := rng.Intn(len(held))
				a := held[i]
				if rng.Intn(20) != 0 { // else a double release
					held = slices.Delete(held, i, i+1)
				}
				p.Release(a)
				ref.Release(a)
			default:
				rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
				n := rng.Intn(len(held) + 1)
				batch := slices.Clone(held[:n])
				held = held[n:]
				p.ReleaseBatch(batch)
				ref.ReleaseBatch(batch)
			}
			if p.Free() != ref.Free() || p.Ops != ref.Ops || p.LockAcquisitions != ref.LockAcquisitions {
				t.Fatalf("seed %d step %d: free/ops/locks %d/%d/%d, reference %d/%d/%d",
					seed, step, p.Free(), p.Ops, p.LockAcquisitions, ref.Free(), ref.Ops, ref.LockAcquisitions)
			}
		}
	}
}
