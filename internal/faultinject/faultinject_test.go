package faultinject

import (
	"errors"
	"strings"
	"testing"

	"ovsxdp/internal/sim"
)

// TestWindowGateLifecycle walks a gate through before/inside/after one
// armed window and checks the trip accounting and the list of gates.
func TestWindowGateLifecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	inj := New(eng)
	gate := inj.Gate(KindUpcallFailure, "upcall")
	if got := inj.Gates(); len(got) != 1 || got[0] != "upcall-failure|upcall" {
		t.Fatalf("gates = %q, want the one handed out", got)
	}

	inj.Window(KindUpcallFailure, "upcall", 10*sim.Microsecond, 20*sim.Microsecond, nil)

	var polls []bool
	for _, at := range []sim.Time{5, 15, 25, 35} {
		at := at * sim.Microsecond
		eng.ScheduleAt(at, func() { polls = append(polls, gate()) })
	}
	eng.RunUntil(sim.Millisecond)

	want := []bool{false, true, true, false}
	for i := range want {
		if polls[i] != want[i] {
			t.Errorf("poll %d = %v, want %v", i, polls[i], want[i])
		}
	}
	if inj.Trips(KindUpcallFailure) != 2 {
		t.Errorf("trips = %d, want 2", inj.Trips(KindUpcallFailure))
	}
	if inj.Windows(KindUpcallFailure) != 1 {
		t.Errorf("windows = %d, want 1", inj.Windows(KindUpcallFailure))
	}
	if inj.Active(KindUpcallFailure, "upcall") {
		t.Error("fault still active after window closed")
	}
	if !strings.Contains(inj.Report(), "upcall-failure") {
		t.Errorf("report missing kind: %q", inj.Report())
	}
}

// TestWindowOnSetEdges checks the side-effect hook fires at both edges.
func TestWindowOnSetEdges(t *testing.T) {
	eng := sim.NewEngine(1)
	inj := New(eng)
	var edges []bool
	inj.Window(KindOffloadTablePressure, "nic0", 0, 50*sim.Microsecond, func(active bool) {
		edges = append(edges, active)
	})
	eng.RunUntil(sim.Millisecond)
	if len(edges) != 2 || !edges[0] || edges[1] {
		t.Errorf("edges = %v, want [true false]", edges)
	}
}

// TestFaultErrorTransient pins which kinds the retry machinery retries.
func TestFaultErrorTransient(t *testing.T) {
	transient := map[Kind]bool{
		KindUpcallFailure:        true,
		KindOffloadTablePressure: false,
	}
	for k, want := range transient {
		err := (&Injector{}).Err(k, "x")
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("%v: not a *FaultError", k)
		}
		if fe.Transient() != want {
			t.Errorf("%v: Transient = %v, want %v", k, fe.Transient(), want)
		}
	}
}

// TestBackoffDeterministicAndMonotone: same seed, same delays; the
// deterministic component doubles per attempt; jitter stays bounded.
func TestBackoffDeterministicAndMonotone(t *testing.T) {
	base := 25 * sim.Microsecond
	a := sim.NewEngine(7).Rand()
	b := sim.NewEngine(7).Rand()
	for attempt := 1; attempt <= 6; attempt++ {
		da := Backoff(a, base, attempt)
		db := Backoff(b, base, attempt)
		if da != db {
			t.Fatalf("attempt %d: %v != %v with equal seeds", attempt, da, db)
		}
		lo := base << uint(attempt)
		hi := lo + lo/2
		if da < lo || da > hi {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, da, lo, hi)
		}
	}
	// The shift cap keeps absurd attempt counts finite and positive.
	if d := Backoff(a, base, 1000); d <= 0 {
		t.Errorf("capped backoff not positive: %v", d)
	}
}
