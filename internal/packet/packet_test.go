package packet

import (
	"bytes"
	"fmt"
	"math/rand"
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

// TestPoolMatchesReference drives the pool and the eager-buffer reference
// (pool_ref_test.go) with the same seeded streams of acquisitions — empty,
// small, whole-buffer and oversized frames, the last taking the heap
// fallback once the pool is dry — releases, double releases and metadata
// scribbles. Every acquisition must come from the same backing slot with
// the same Data bytes, capacity and reset metadata; Allocs and Available
// must agree after every step; and every live packet must still hold what
// was copied into it, so no two live packets share bytes.
func TestPoolMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, bufSize := rng.Intn(9), []int{0, 1, 8, 64, 2048}[rng.Intn(5)]
		prealloc := rng.Intn(8) != 0
		pool, ref := NewPool(n, bufSize, prealloc), newRefPool(n, bufSize, prealloc)
		type handle struct {
			got, want *Packet
			data      []byte
		}
		var live, released []handle
		for step := 0; step < 300; step++ {
			where := func() string {
				return fmt.Sprintf("seed %d (n=%d buf=%d prealloc=%v) step %d", seed, n, bufSize, prealloc, step)
			}
			switch op := rng.Intn(10); {
			case op < 5:
				buf := make([]byte, []int{0, 1, bufSize / 2, bufSize, bufSize + 1, 3 * bufSize}[rng.Intn(6)])
				rng.Read(buf)
				h := handle{pool.GetCopy(buf), ref.GetCopy(buf), append([]byte(nil), buf...)}
				rng.Read(buf) // the caller reuses buf
				if h.got.pooled != h.want.pooled || (h.got.pooled && slot(pool.backing, h.got) != slot(ref.backing, h.want)) {
					t.Fatalf("%s: acquired pooled=%v slot %d, reference pooled=%v slot %d", where(),
						h.got.pooled, slot(pool.backing, h.got), h.want.pooled, slot(ref.backing, h.want))
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
				i := rng.Intn(len(live))
				h := live[i]
				live = slices.Delete(live, i, i+1)
				h.got.InPort, h.want.InPort = 7, 7
				h.got.CtState, h.want.CtState = CtTracked, CtTracked
				h.got.Release()
				ref.put(h.want)
				released = append(released, h)
			case len(released) > 0:
				h := released[rng.Intn(len(released))]
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
}

// slot is pkt's index in a pool's backing array, or -1.
func slot(backing []Packet, pkt *Packet) int {
	for i := range backing {
		if &backing[i] == pkt {
			return i
		}
	}
	return -1
}

// TestPoolBuffersOnFirstUse: a pool pre-allocates metadata only; a packet
// gets its buffer on its first acquisition and keeps it after release.
func TestPoolBuffersOnFirstUse(t *testing.T) {
	pool := NewPool(1024, 2048, true)
	for i := range pool.backing {
		if pool.backing[i].Data != nil {
			t.Fatalf("packet %d has a buffer before its first use", i)
		}
	}
	p := pool.GetCopy(make([]byte, 64))
	buf := &p.Data[:1][0]
	if cap(p.Data) != 2048 {
		t.Fatalf("first use gave a %d-byte buffer, want 2048", cap(p.Data))
	}
	p.Release()
	if q := pool.GetCopy(make([]byte, 64)); q != p || &q.Data[:1][0] != buf {
		t.Fatal("a reacquired packet must keep its buffer")
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
