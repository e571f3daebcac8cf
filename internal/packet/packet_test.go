package packet

import (
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
	p := pool.Get(buf)
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
	p := pool.Get([]byte{1})
	p.Release()
	p.Release()
	if pool.Available() != 2 {
		t.Fatalf("double release corrupted the pool: %d", pool.Available())
	}
}

func TestPoolExhaustionFallsBackToHeap(t *testing.T) {
	pool := NewPool(1, 64, true)
	a := pool.Get([]byte{1})
	b := pool.Get([]byte{2})
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
	p := pool.Get([]byte{5})
	if pool.Allocs != 1 {
		t.Fatal("non-preallocated pool must heap-allocate")
	}
	p.Release() // must not panic
}

func TestPoolGetResetsMetadata(t *testing.T) {
	pool := NewPool(1, 64, true)
	p := pool.Get([]byte{1})
	p.InPort = 9
	p.CtState = CtTracked
	p.Release()
	q := pool.Get([]byte{2})
	if q.InPort != 0 || q.CtState != 0 || q.L3Offset != -1 {
		t.Fatalf("reused packet metadata not reset: %+v", q.Metadata)
	}
}

func TestPoolOversizedBuffer(t *testing.T) {
	pool := NewPool(1, 8, true)
	big := make([]byte, 64)
	big[63] = 7
	p := pool.Get(big)
	if len(p.Data) != 64 || p.Data[63] != 7 {
		t.Fatal("oversized buffer must still be carried")
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
