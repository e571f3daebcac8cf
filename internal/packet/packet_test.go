package packet

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ovsxdp/internal/packet/hdr"
)

func TestNewPacketDefaults(t *testing.T) {
	p := New(make([]byte, 64))
	if len(p.Data) != 64 {
		t.Fatalf("len = %d", len(p.Data))
	}
	if p.L3Offset != -1 || p.L4Offset != -1 {
		t.Fatal("header offsets must start unset")
	}
	if p.InPort != 0 || p.RecircID != 0 || p.CtState != 0 {
		t.Fatal("metadata must start zero")
	}
}

func TestResetMetadata(t *testing.T) {
	p := New(make([]byte, 10))
	p.InPort = 3
	p.RecircID = 2
	p.CtState = CtTracked | CtEstablished
	p.L3Offset = 14
	p.Tunnel = &TunnelInfo{VNI: 9}
	p.ResetMetadata()
	if p.InPort != 0 || p.RecircID != 0 || p.CtState != 0 || p.L3Offset != -1 || p.Tunnel != nil {
		t.Fatalf("reset incomplete: %+v", p.Metadata)
	}
	if len(p.Data) != 10 {
		t.Fatal("reset must keep the buffer")
	}
}

func TestClone(t *testing.T) {
	p := New([]byte{1, 2, 3})
	p.InPort = 7
	p.Tunnel = &TunnelInfo{VNI: 5, DstIP: hdr.MakeIP4(1, 2, 3, 4)}
	c := p.Clone()
	c.Data[0] = 99
	c.Tunnel.VNI = 6
	if p.Data[0] != 1 {
		t.Fatal("clone must not share data")
	}
	if p.Tunnel.VNI != 5 {
		t.Fatal("clone must not share tunnel info")
	}
	if c.InPort != 7 {
		t.Fatal("clone must copy metadata")
	}
}

func TestPoolPreallocated(t *testing.T) {
	pool := NewPool(4, 2048, true)
	if pool.Available() != 4 {
		t.Fatalf("available = %d", pool.Available())
	}
	buf := []byte{0xaa, 0xbb}
	p := pool.GetCopy(buf)
	if pool.Available() != 3 {
		t.Fatal("get must take from the pool")
	}
	if len(p.Data) != 2 || p.Data[0] != 0xaa {
		t.Fatal("get must carry the data")
	}
	if pool.Allocs != 0 {
		t.Fatal("preallocated get must not heap-allocate")
	}
	p.Release()
	if pool.Available() != 4 {
		t.Fatal("release must return to the pool")
	}
}

func TestPoolDoubleReleaseSafe(t *testing.T) {
	pool := NewPool(2, 64, true)
	p := pool.GetCopy([]byte{1})
	p.Release()
	p.Release()
	if pool.Available() != 2 {
		t.Fatalf("double release corrupted the pool: %d", pool.Available())
	}
}

func TestPoolExhaustionFallsBackToHeap(t *testing.T) {
	pool := NewPool(1, 64, true)
	a := pool.GetCopy([]byte{1})
	b := pool.GetCopy([]byte{2})
	if pool.Allocs != 1 {
		t.Fatalf("allocs = %d, want 1", pool.Allocs)
	}
	b.Release() // heap packet: no-op
	if pool.Available() != 0 {
		t.Fatal("heap packet must not enter the pool")
	}
	a.Release()
	if pool.Available() != 1 {
		t.Fatal("pooled packet must return")
	}
}

func TestPoolNotPreallocated(t *testing.T) {
	pool := NewPool(16, 64, false)
	p := pool.GetCopy([]byte{5})
	if pool.Allocs != 1 {
		t.Fatal("non-preallocated pool must heap-allocate")
	}
	p.Release() // must not panic
}

func TestPoolGetResetsMetadata(t *testing.T) {
	pool := NewPool(1, 64, true)
	p := pool.GetCopy([]byte{1})
	p.InPort = 9
	p.CtState = CtTracked
	p.Release()
	q := pool.GetCopy([]byte{2})
	if q.InPort != 0 || q.CtState != 0 || q.L3Offset != -1 {
		t.Fatalf("reused packet metadata not reset: %+v", q.Metadata)
	}
}

func TestPoolOversizedBuffer(t *testing.T) {
	pool := NewPool(1, 8, true)
	big := make([]byte, 64)
	big[63] = 7
	p := pool.GetCopy(big)
	if len(p.Data) != 64 || p.Data[63] != 7 {
		t.Fatal("oversized buffer must still be carried")
	}
}

// TestPoolMatchesReference drives the pool and the eager reference
// (pool_ref_test.go) with seeded streams of poolOps, at capacities within one
// chunk and across several.
func TestPoolMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{rng.Intn(9), poolChunk - 2 + rng.Intn(4*poolChunk)}[rng.Intn(2)]
		bufSize, prealloc := []int{0, 1, 8, 64, 2048}[rng.Intn(5)], rng.Intn(8) != 0
		poolOps(t, fmt.Sprintf("seed %d", seed), n, bufSize, prealloc, 1000, rng.Intn, func(b []byte) { rng.Read(b) })
	}
}

// FuzzPoolOps is TestPoolMatchesReference on byte-driven streams: the first
// three bytes pick the capacity (0 to 255, so up to four chunks), the buffer
// size and O4, and each later byte one choice of poolOps.
func FuzzPoolOps(f *testing.F) {
	f.Add([]byte{3, 4, 1, 0, 5, 6, 2, 0, 9})
	f.Add([]byte{70, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 5, 0, 8, 0})
	f.Add([]byte{200, 2, 0, 4, 4, 5, 1, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, bufSize, prealloc := int(data[0]), []int{0, 1, 8, 64, 2048}[data[1]%5], data[2]%8 != 0
		ops, fill := data[3:], byte(0)
		pick := func(k int) int {
			if len(ops) == 0 {
				return 0 // the stream ends in empty acquisitions: exhaustion
			}
			b := ops[0]
			ops = ops[1:]
			return int(b) % k
		}
		poolOps(t, "fuzz", n, bufSize, prealloc, 2*len(data), pick, func(b []byte) {
			for i := range b {
				b[i], fill = fill, fill+1
			}
		})
	})
}

// poolOps drives a pool and the reference with the same steps, each chosen
// by pick(k) in [0, k): acquisitions of empty, small, whole-buffer and
// oversized frames (the last taking the heap fallback once the pool is
// dry), releases, double releases and metadata scribbles. Every acquisition
// must come from the same slot with the same Data bytes, capacity and reset
// metadata; Allocs and Available must agree after every step; and every
// live packet must still hold what was copied into it, so no two live
// packets share bytes.
func poolOps(t *testing.T, name string, n, bufSize int, prealloc bool, steps int, pick func(int) int, fill func([]byte)) {
	t.Helper()
	pool, ref := NewPool(n, bufSize, prealloc), newRefPool(n, bufSize, prealloc)
	type handle struct {
		got, want *Packet
		data      []byte
	}
	var live, released []handle
	for step := 0; step < steps; step++ {
		where := func() string {
			return fmt.Sprintf("%s (n=%d buf=%d prealloc=%v) step %d", name, n, bufSize, prealloc, step)
		}
		switch op := pick(10); {
		case op < 5:
			buf := make([]byte, []int{0, 1, bufSize / 2, bufSize, bufSize + 1, 3 * bufSize}[pick(6)])
			fill(buf)
			h := handle{pool.GetCopy(buf), ref.GetCopy(buf), append([]byte(nil), buf...)}
			fill(buf) // the caller reuses buf
			gotSlot, wantSlot := slot(n, pool.chunks, h.got), slot(n, [][]Packet{ref.backing}, h.want)
			if h.got.pooled != h.want.pooled || gotSlot != wantSlot {
				t.Fatalf("%s: acquired pooled=%v slot %d, reference pooled=%v slot %d", where(),
					h.got.pooled, gotSlot, h.want.pooled, wantSlot)
			}
			if !bytes.Equal(h.got.Data, h.data) || !bytes.Equal(h.want.Data, h.data) || cap(h.got.Data) != cap(h.want.Data) {
				t.Fatalf("%s: Data % x cap %d, reference % x cap %d, copied % x", where(),
					h.got.Data, cap(h.got.Data), h.want.Data, cap(h.want.Data), h.data)
			}
			if h.got.Metadata != h.want.Metadata || h.got.L3Offset != -1 {
				t.Fatalf("%s: metadata %+v, reference %+v", where(), h.got.Metadata, h.want.Metadata)
			}
			released = slices.DeleteFunc(released, func(r handle) bool { return r.got == h.got })
			live = append(live, h)
		case op < 8 && len(live) > 0:
			i := pick(len(live))
			h := live[i]
			live = slices.Delete(live, i, i+1)
			h.got.InPort, h.want.InPort = 7, 7
			h.got.CtState, h.want.CtState = CtTracked, CtTracked
			h.got.Release()
			ref.put(h.want)
			released = append(released, h)
		case len(released) > 0:
			h := released[pick(len(released))]
			h.got.Release()
			ref.put(h.want)
		}
		if pool.Allocs != ref.Allocs || pool.Available() != ref.Available() {
			t.Fatalf("%s: Allocs %d Available %d, reference %d %d", where(),
				pool.Allocs, pool.Available(), ref.Allocs, ref.Available())
		}
		for _, h := range live {
			if !bytes.Equal(h.got.Data, h.data) {
				t.Fatalf("%s: a live packet's bytes changed under it: % x, copied % x", where(), h.got.Data, h.data)
			}
		}
	}
}

// slot is pkt's index in a pool of n whose chunks fill slots downwards from
// n-1 (the reference's one array is a single chunk), or -1.
func slot(n int, chunks [][]Packet, pkt *Packet) int {
	for _, c := range chunks {
		n -= len(c)
		for i := range c {
			if &c[i] == pkt {
				return n + i
			}
		}
	}
	return -1
}

// TestPoolBuffersOnFirstUse: a pool grows metadata only when acquired from;
// a packet gets its buffer on its first acquisition and keeps it after
// release.
func TestPoolBuffersOnFirstUse(t *testing.T) {
	pool := NewPool(1024, 2048, true)
	if len(pool.chunks) != 0 {
		t.Fatalf("%d chunks before the first acquisition", len(pool.chunks))
	}
	p := pool.GetCopy(make([]byte, 64))
	for _, c := range pool.chunks {
		for i := range c {
			if &c[i] != p && c[i].Data != nil {
				t.Fatalf("packet %d has a buffer before its first use", i)
			}
		}
	}
	buf := &p.Data[:1][0]
	if cap(p.Data) != 2048 {
		t.Fatalf("first use gave a %d-byte buffer, want 2048", cap(p.Data))
	}
	p.Release()
	if q := pool.GetCopy(make([]byte, 64)); q != p || &q.Data[:1][0] != buf {
		t.Fatal("a reacquired packet must keep its buffer")
	}
}

// TestPoolHoldsItsWorkingSet: an untouched pool costs its header, not its
// capacity, and one that has held k packets at once holds ceil(k/poolChunk)
// chunks, however often they are reacquired.
func TestPoolHoldsItsWorkingSet(t *testing.T) {
	const pools = 64
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // a second cycle frees what the first left to sync.Pool victims
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	idle := make([]*Pool, pools)
	for i := range idle {
		idle[i] = NewPool(4096, 2048, true)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(idle)
	per := (int64(ms.HeapAlloc) - int64(before)) / pools
	t.Logf("an untouched 4096-packet pool holds %d B of heap", per)
	if per >= 1024 {
		t.Fatalf("an untouched 4096-packet pool holds %d B of heap, want under 1 KiB", per)
	}
	for _, k := range []int{1, poolChunk - 1, poolChunk, poolChunk + 1, 1000, 4096} {
		pool := NewPool(4096, 64, true)
		held := make([]*Packet, k)
		for range 3 {
			for i := range held {
				held[i] = pool.GetCopy(nil)
			}
			for _, p := range held {
				p.Release()
			}
		}
		chunks := (k + poolChunk - 1) / poolChunk
		if len(pool.chunks) != chunks || pool.grown != chunks*poolChunk || pool.Allocs != 0 || pool.Available() != 4096 {
			t.Errorf("k=%d: %d chunks of %d packets, %d allocs, %d available; want %d of %d, 0, 4096",
				k, len(pool.chunks), pool.grown, pool.Allocs, pool.Available(), chunks, chunks*poolChunk)
		}
	}
}

func TestCtStateString(t *testing.T) {
	if s := (CtTracked | CtEstablished).String(); s != "trk,est" {
		t.Fatalf("ct state string = %q", s)
	}
	if s := CtStateFlags(0).String(); s != "-" {
		t.Fatalf("empty ct state string = %q", s)
	}
}

func TestPacketString(t *testing.T) {
	p := New(make([]byte, 60))
	p.InPort = 2
	if p.String() == "" {
		t.Fatal("String must produce something")
	}
}
