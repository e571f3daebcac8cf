package vdev

import (
	"testing"

	"ovsxdp/internal/packet"
)

func pkt() *packet.Packet { return packet.New(make([]byte, 64)) }

func TestQueueFIFO(t *testing.T) {
	q := NewQueue("q", 4)
	a, b := pkt(), pkt()
	q.Push(a)
	q.Push(b)
	out := q.Pop(10)
	if len(out) != 2 || out[0] != a || out[1] != b {
		t.Fatal("FIFO order violated")
	}
	if q.Len() != 0 {
		t.Fatal("pop must drain")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	q := NewQueue("q", 2)
	for i := 0; i < 5; i++ {
		q.Push(pkt())
	}
	if q.Len() != 2 || q.Dropped != 3 || q.Enqueued != 2 {
		t.Fatalf("len=%d dropped=%d enq=%d", q.Len(), q.Dropped, q.Enqueued)
	}
}

func TestQueueWakeupOnTransition(t *testing.T) {
	q := NewQueue("q", 8)
	fired := 0
	q.SetWakeup(func() { fired++ })
	q.ArmWakeup()
	q.Push(pkt())
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// Not armed anymore: second push is silent.
	q.Push(pkt())
	if fired != 1 {
		t.Fatal("wakeup must be one-shot")
	}
	// Arming with packets pending fires immediately.
	q.ArmWakeup()
	if fired != 2 {
		t.Fatal("arming a non-empty queue must fire immediately")
	}
}

func TestQueueWakeupOnlyOnEmptyTransition(t *testing.T) {
	q := NewQueue("q", 8)
	fired := 0
	q.SetWakeup(func() { fired++ })
	q.Push(pkt()) // not armed: no fire
	q.ArmWakeup() // non-empty: fires now
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestQueueDefaultDepth(t *testing.T) {
	q := NewQueue("q", 0)
	for i := 0; i <= DefaultQueueDepth; i++ {
		q.Push(pkt())
	}
	if q.Len() != DefaultQueueDepth || q.Dropped != 1 {
		t.Fatalf("default depth not applied: len=%d dropped=%d", q.Len(), q.Dropped)
	}
}

// TestRefusedPushReleases: a push the queue refuses — ring overflow or an
// injected gate — gives a pooled packet back to its pool, because no caller
// looks at the result.
func TestRefusedPushReleases(t *testing.T) {
	pool := packet.NewPool(4, 64, true)
	frame := make([]byte, 64)

	full := NewQueue("full", 1)
	full.Push(pool.Get(frame))
	if full.Push(pool.Get(frame)) {
		t.Fatal("push beyond the depth was accepted")
	}
	if got := pool.Available(); got != 3 {
		t.Fatalf("overflow: %d of 4 packets free, want 3 (one queued)", got)
	}

	gated := NewQueue("gated", 1)
	gated.Gate = func() bool { return true }
	if gated.Push(pool.Get(frame)) {
		t.Fatal("gated push was accepted")
	}
	if got := pool.Available(); got != 3 || gated.GateDrops != 1 {
		t.Fatalf("gate: %d of 4 packets free, want 3; gate drops %d", got, gated.GateDrops)
	}
}

func TestTapQueuesAreDistinct(t *testing.T) {
	tap := NewLink("tap0")
	tap.ToPeer.Push(pkt())
	if tap.FromPeer.Len() != 0 {
		t.Fatal("tap directions must be independent")
	}
}

func TestVhostRings(t *testing.T) {
	v := NewLink("vhost0")
	p := pkt()
	v.ToPeer.Push(p)
	got := v.ToPeer.Pop(1)
	if len(got) != 1 || got[0] != p {
		t.Fatal("vhost ring lost the packet")
	}
}

func TestVethPairCrossing(t *testing.T) {
	v := NewLink("veth0")
	p := pkt()
	if !v.ToPeer.Push(p) {
		t.Fatal("send failed")
	}
	got := v.ToPeer.Pop(1)
	if len(got) != 1 || got[0] != p {
		t.Fatal("A->B crossing failed")
	}
	v.FromPeer.Push(p)
	if v.FromPeer.Len() != 1 {
		t.Fatal("B->A crossing failed")
	}
}
