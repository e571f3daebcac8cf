package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// collect runs the engine to completion and returns the order in which the
// labelled events fired.
func collect(t *testing.T, schedule func(e *Engine, emit func(id int))) []int {
	t.Helper()
	e := NewEngine(1)
	var got []int
	schedule(e, func(id int) { got = append(got, id) })
	e.Run()
	return got
}

func TestWheelRandomizedMatchesSortedOrder(t *testing.T) {
	// Property test against the reference semantics: events fire in
	// (at, seq) order regardless of where they land in the wheel.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine(1)
		type ev struct {
			at  Time
			seq int
		}
		var want []ev
		var got []int
		n := 500
		for i := 0; i < n; i++ {
			// Mix scales so all wheel levels and the far list are hit:
			// sub-microsecond, per-level windows, and multi-minute.
			var at Time
			switch rng.Intn(5) {
			case 0:
				at = Time(rng.Int63n(1 << 10))
			case 1:
				at = Time(rng.Int63n(1 << 18))
			case 2:
				at = Time(rng.Int63n(1 << 26))
			case 3:
				at = Time(rng.Int63n(1 << 34))
			default:
				at = Time(rng.Int63n(120 * int64(Second)))
			}
			// Force collisions so the seq tie-break is exercised.
			at &^= 0x3f
			id := i
			want = append(want, ev{at, i})
			e.ScheduleAt(at, func() { got = append(got, id) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.Run()
		if len(got) != n {
			t.Fatalf("trial %d: ran %d of %d events", trial, len(got), n)
		}
		for i, id := range got {
			if want[i].seq != id {
				t.Fatalf("trial %d: position %d fired event %d, want %d (at=%v)",
					trial, i, id, want[i].seq, want[i].at)
			}
		}
	}
}

func TestWheelCascadeBoundaries(t *testing.T) {
	// Events straddling level boundaries: the end of level 0's window
	// (256*1024 ns), level 1's (2^26 ns), and level 2's (2^34 ns), each
	// ±1 slot width, must still fire in timestamp order.
	boundaries := []Time{1 << (shift0 + wheelBits), 1 << (shift0 + 2*wheelBits), 1 << (shift0 + 3*wheelBits)}
	var ats []Time
	for _, b := range boundaries {
		for _, d := range []Time{-1025, -1, 0, 1, 1023, 1024, 4096} {
			ats = append(ats, b+d)
		}
	}
	got := collect(t, func(e *Engine, emit func(int)) {
		for i, at := range ats {
			id := i
			e.ScheduleAt(at, func() { emit(id) })
		}
	})
	if len(got) != len(ats) {
		t.Fatalf("ran %d of %d events", len(got), len(ats))
	}
	for i := 1; i < len(got); i++ {
		if ats[got[i-1]] > ats[got[i]] {
			t.Fatalf("order violation at %d: %v before %v", i, ats[got[i-1]], ats[got[i]])
		}
	}
}

func TestWheelFarFutureEvents(t *testing.T) {
	// An event far beyond the level-2 window, plus one just inside it,
	// plus a near one; verify order and that the far event actually runs.
	got := collect(t, func(e *Engine, emit func(int)) {
		e.ScheduleAt(90*Second, func() { emit(2) })
		e.ScheduleAt(100, func() { emit(0) })
		e.ScheduleAt(10*Second, func() { emit(1) })
	})
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got order %v, want [0 1 2]", got)
	}
}

func TestWheelFarEventInsideFlushedSlot(t *testing.T) {
	// Regression shape for the far-vs-level-0 interaction: a far-future
	// event whose timestamp, once the clock approaches, falls inside the
	// same level-0 slot as an already-wheeled event with a later offset.
	e := NewEngine(1)
	var got []Time
	base := 60 * Second
	e.ScheduleAt(base+512, func() { got = append(got, base+512) })
	// Drive the clock close to base with a chain so the first event sits
	// in the far list while the chain churns the wheel.
	var step func()
	next := Time(0)
	step = func() {
		next += 200 * Millisecond
		if next < base {
			e.Schedule(200*Millisecond, step)
		}
	}
	e.Schedule(0, step)
	e.ScheduleAt(base+300, func() { got = append(got, base+300) })
	e.Run()
	if len(got) != 2 || got[0] != base+300 || got[1] != base+512 {
		t.Fatalf("got %v, want [%v %v]", got, base+300, base+512)
	}
}

func TestWheelEqualTimesAcrossLevelsFIFO(t *testing.T) {
	// Equal timestamps scheduled at different clock positions (so they
	// enter via different levels) must still fire in scheduling order.
	e := NewEngine(1)
	var got []int
	target := 50 * Millisecond // lands in level 2 initially
	e.ScheduleAt(target, func() { got = append(got, 0) })
	e.Schedule(40*Millisecond, func() { // by now target is in a lower level
		e.ScheduleAt(target, func() { got = append(got, 1) })
	})
	e.ScheduleAt(target-Microsecond, func() { // near the end, enters level 0/near
		e.ScheduleAt(target, func() { got = append(got, 2) })
	})
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got order %v, want [0 1 2]", got)
	}
}

func TestTimerStopCancels(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	tm.Schedule(100)
	if tm.idx < 0 {
		t.Fatal("timer should be armed")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	tm.Stop()
	if tm.idx >= 0 {
		t.Fatal("timer should be disarmed after Stop")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Stop, want 0", e.Pending())
	}
	e.Run()
	if fired != 0 {
		t.Fatalf("cancelled timer fired %d times", fired)
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v running only a cancelled event", e.Now())
	}
}

func TestTimerRearmReplacesPending(t *testing.T) {
	e := NewEngine(1)
	var firedAt []Time
	tm := e.NewTimer(func() { firedAt = append(firedAt, e.Now()) })
	tm.Schedule(100)
	tm.Schedule(50) // replaces the 100ns arm
	e.Run()
	if len(firedAt) != 1 || firedAt[0] != 50 {
		t.Fatalf("firedAt = %v, want [50ns]", firedAt)
	}
}

func TestTimerRearmFromCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tm *Timer
	tm = e.NewTimer(func() {
		n++
		if n < 5 {
			tm.Schedule(10)
		}
	})
	tm.Schedule(10)
	e.Run()
	if n != 5 {
		t.Fatalf("timer fired %d times, want 5", n)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50ns", e.Now())
	}
	if tm.idx >= 0 {
		t.Fatal("timer should be idle after the chain ends")
	}
}

func TestTimerStopFarFuture(t *testing.T) {
	// Cancel an event sitting in the far list; the queue must still
	// terminate and reclaim it without running it.
	e := NewEngine(1)
	tm := e.NewTimer(func() { t.Fatal("should not fire") })
	tm.ScheduleAt(120 * Second)
	e.ScheduleAt(10, func() {})
	tm.Stop()
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10ns (cancelled far event must not advance clock)", e.Now())
	}
}

func TestWheelMidDrainInsert(t *testing.T) {
	// Insert an event for the near window while the near ring is being
	// consumed: it must slot into the correct position.
	e := NewEngine(1)
	var got []int
	e.ScheduleAt(10, func() {
		got = append(got, 0)
		e.ScheduleAt(15, func() { got = append(got, 1) })
	})
	e.ScheduleAt(20, func() { got = append(got, 2) })
	e.ScheduleAt(30, func() { got = append(got, 3) })
	e.Run()
	for i, want := range []int{0, 1, 2, 3} {
		if got[i] != want {
			t.Fatalf("got %v", got)
		}
	}
}

func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	tm := e.NewTimer(func() {})
	d := NewDeadlines(e, func(*struct{}) {})
	arg := &struct{}{}
	// Prime the slab, the near ring and the deadline ring.
	for i := 0; i < 64; i++ {
		d.Push(e.Now()+Time(i), arg)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Schedule(100)
		d.Push(e.Now()+50, arg)
		e.RunUntil(e.Now() + 200)
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+run allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestFlushLargeSlotIsNotQuadratic schedules 40k events into one level-0
// slot. Direct pushes chain them in exactly reverse (at, seq) order, the
// insertion sort's worst case: it took 870 ms here before long slots went
// to the general sort, which takes a few milliseconds.
func TestFlushLargeSlotIsNotQuadratic(t *testing.T) {
	const n = 40000
	e := NewEngine(1)
	got := make([]int32, 0, n)
	for i := int32(0); i < n; i++ {
		// Non-decreasing times inside slot 5, 64 events per timestamp, so
		// both halves of the (at, seq) order are exercised.
		e.ScheduleAt(5<<shift0+Time(i/64), func() { got = append(got, i) })
	}
	start := time.Now()
	e.Run()
	elapsed := time.Since(start)
	if len(got) != n {
		t.Fatalf("ran %d of %d events", len(got), n)
	}
	for i, id := range got {
		if id != int32(i) {
			t.Fatalf("event %d fired at position %d: not (at, seq) order", id, i)
		}
	}
	if elapsed > 400*time.Millisecond {
		t.Fatalf("flushing a %d-event slot took %v, want well under 400ms", n, elapsed)
	}
}
