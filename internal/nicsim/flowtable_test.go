package nicsim

import (
	"testing"

	"ovsxdp/internal/flow"
)

func fkey(i int) flow.Key { return flow.Key{uint64(i) + 1} }

// ledger asserts the conservation invariant at any point in a table's life.
func ledger[C comparable](t *testing.T, tbl *FlowTable[C]) {
	t.Helper()
	if tbl.Installs != tbl.Evictions+tbl.Uninstalls+uint64(tbl.Len()) {
		t.Fatalf("ledger broken: installs=%d evictions=%d uninstalls=%d live=%d",
			tbl.Installs, tbl.Evictions, tbl.Uninstalls, tbl.Len())
	}
}

func TestFlowTableInstallLookup(t *testing.T) {
	tbl := NewFlowTable[string](4)
	if _, ok := tbl.Install(fkey(1), "a"); !ok {
		t.Fatal("install into empty table refused")
	}
	c, ok := tbl.Lookup(fkey(1))
	if !ok || c != "a" {
		t.Fatalf("lookup = %v, %v", c, ok)
	}
	if tbl.Hits != 1 {
		t.Fatalf("hits = %d", tbl.Hits)
	}
	// Replacement updates the cookie in place, no ledger movement.
	if _, ok := tbl.Install(fkey(1), "b"); !ok {
		t.Fatal("in-place replace refused")
	}
	if c, _ := tbl.Lookup(fkey(1)); c != "b" {
		t.Fatal("cookie not replaced in place")
	}
	if tbl.Installs != 1 || tbl.Len() != 1 {
		t.Fatalf("replace moved the ledger: installs=%d live=%d", tbl.Installs, tbl.Len())
	}
	if _, ok := tbl.Lookup(fkey(2)); ok {
		t.Fatal("phantom hit")
	}
	ledger(t, tbl)
}

func TestFlowTableEvictsLowestRate(t *testing.T) {
	tbl := NewFlowTable[int](2)
	tbl.Install(fkey(1), 1)
	tbl.Install(fkey(2), 2)
	// Key 1 is hot, key 2 idle; after readback the rates differ.
	for i := 0; i < 5; i++ {
		tbl.Lookup(fkey(1))
	}
	tbl.Readback(nil)
	tbl.Readback(nil) // second sweep: key 1 rate decays to 0 too, but...
	tbl.Lookup(fkey(1))
	// ...key 1 has fresh unreported hits, so key 2 is the victim.
	evicted, ok := tbl.Install(fkey(3), 3)
	if !ok || evicted == nil {
		t.Fatalf("install = %v, %v; want eviction", evicted, ok)
	}
	if evicted.Key != fkey(2) {
		t.Fatalf("evicted %v, want idle key 2", evicted.Key)
	}
	ledger(t, tbl)
}

func TestFlowTableLRUTiebreak(t *testing.T) {
	tbl := NewFlowTable[int](2)
	tbl.Install(fkey(1), 1)
	tbl.Install(fkey(2), 2)
	tbl.Lookup(fkey(2))
	tbl.Lookup(fkey(1))
	tbl.Readback(nil) // both rates equalize... no: 1 and 1, equal scores
	// Equal scores (both rate 1, no fresh hits): least-recently-hit loses.
	evicted, ok := tbl.Install(fkey(3), 3)
	if ok || evicted != nil {
		// All residents carry nonzero rate: admission control refuses.
		t.Fatalf("install through active residents: evicted=%v ok=%v", evicted, ok)
	}
	tbl.Readback(nil) // rates decay to zero, scores tie at 0
	evicted, ok = tbl.Install(fkey(3), 3)
	if !ok || evicted == nil || evicted.Key != fkey(2) {
		t.Fatalf("LRU tiebreak evicted %v, want key 2 (hit earliest)", evicted)
	}
	ledger(t, tbl)
}

func TestFlowTableAdmissionControlBlocks(t *testing.T) {
	tbl := NewFlowTable[int](2)
	tbl.Install(fkey(1), 1)
	tbl.Install(fkey(2), 2)
	tbl.Lookup(fkey(1))
	tbl.Lookup(fkey(2))
	// Both residents active: every install attempt is refused, and after
	// the first refusal the blocked flag short-circuits.
	for i := 0; i < 3; i++ {
		if _, ok := tbl.Install(fkey(3+i), i); ok {
			t.Fatal("install displaced an active resident")
		}
	}
	if tbl.Refused != 3 {
		t.Fatalf("refused = %d, want 3", tbl.Refused)
	}
	// Readback clears the block; with rates decayed the next install wins.
	tbl.Readback(nil)
	tbl.Readback(nil)
	if _, ok := tbl.Install(fkey(9), 9); !ok {
		t.Fatal("install refused after rates decayed")
	}
	ledger(t, tbl)
}

func TestFlowTableReadbackDeltas(t *testing.T) {
	tbl := NewFlowTable[string](4)
	tbl.Install(fkey(1), "a")
	tbl.Install(fkey(2), "b")
	for i := 0; i < 7; i++ {
		tbl.Lookup(fkey(1))
	}
	got := map[string]uint64{}
	tbl.Readback(func(cookie string, delta uint64) { got[cookie] = delta })
	if len(got) != 1 || got["a"] != 7 {
		t.Fatalf("readback deltas = %v, want only a:7", got)
	}
	// Second sweep: nothing new to report.
	got = map[string]uint64{}
	tbl.Readback(func(cookie string, delta uint64) { got[cookie] = delta })
	if len(got) != 0 {
		t.Fatalf("second readback reported %v", got)
	}
	if tbl.Readbacks != 2 {
		t.Fatalf("readbacks = %d", tbl.Readbacks)
	}
}

func TestFlowTableUninstallAndFlush(t *testing.T) {
	tbl := NewFlowTable[int](4)
	for i := 0; i < 4; i++ {
		tbl.Install(fkey(i), i)
	}
	if hw, ok := tbl.Uninstall(fkey(2)); !ok || hw.Cookie != 2 {
		t.Fatalf("uninstall = %v, %v", hw, ok)
	}
	if _, ok := tbl.Uninstall(fkey(2)); ok {
		t.Fatal("double uninstall succeeded")
	}
	var flushed []int
	tbl.Flush(func(hw *HWFlow[int]) { flushed = append(flushed, hw.Cookie) })
	if len(flushed) != 3 || tbl.Len() != 0 {
		t.Fatalf("flush dropped %d entries, live=%d", len(flushed), tbl.Len())
	}
	if tbl.Uninstalls != 4 {
		t.Fatalf("uninstalls = %d, want 4", tbl.Uninstalls)
	}
	ledger(t, tbl)
}

func TestFlowTableClampForcesEvictions(t *testing.T) {
	tbl := NewFlowTable[int](8)
	for i := 0; i < 8; i++ {
		tbl.Install(fkey(i), i)
	}
	var out []*HWFlow[int]
	tbl.Clamp(3, func(hw *HWFlow[int]) { out = append(out, hw) })
	if len(out) != 5 || tbl.Len() != 3 {
		t.Fatalf("clamp evicted %d, live=%d", len(out), tbl.Len())
	}
	if tbl.EffectiveCapacity() != 3 {
		t.Fatalf("effective capacity = %d", tbl.EffectiveCapacity())
	}
	// Release: capacity restored, nothing evicted.
	tbl.Clamp(0, nil)
	if tbl.EffectiveCapacity() != 8 {
		t.Fatalf("capacity after release = %d", tbl.EffectiveCapacity())
	}
	ledger(t, tbl)
}

func TestFlowTableDeterministicVictims(t *testing.T) {
	// Same operation sequence twice: the eviction order must be identical
	// (the victim scan walks the order slice, never a Go map).
	run := func() []flow.Key {
		tbl := NewFlowTable[int](8)
		for i := 0; i < 8; i++ {
			tbl.Install(fkey(i), i)
			tbl.Lookup(fkey(i))
		}
		tbl.Readback(nil)
		tbl.Readback(nil)
		var order []flow.Key
		for i := 8; i < 16; i++ {
			ev, ok := tbl.Install(fkey(i), i)
			if !ok || ev == nil {
				break
			}
			order = append(order, ev.Key)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("eviction runs diverge in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction order diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
