package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestDeadlinesOrderAndDelivery(t *testing.T) {
	e := NewEngine(1)
	var got []int
	d := NewDeadlines(e, func(v int) { got = append(got, v) })
	d.Push(10, 0)
	d.Push(20, 1)
	e.ScheduleAt(20, func() { got = append(got, 2) }) // same time, later seq
	d.Push(20, 3)
	if e.Pending() != 4 || d.n != 3 {
		t.Fatalf("Pending = %d, Len = %d, want 4 and 3", e.Pending(), d.n)
	}
	e.Run()
	if !slices.Equal(got, []int{0, 1, 2, 3}) || e.Executed() != 4 || d.n != 0 {
		t.Fatalf("got %v after %d events, Len %d; want [0 1 2 3] after 4, Len 0", got, e.Executed(), d.n)
	}
}

func TestDeadlinesPushOutOfOrderPanics(t *testing.T) {
	e := NewEngine(1)
	d := NewDeadlines(e, func(int) {})
	d.Push(100, 0)
	wantPanic(t, "before the previous one", func() { d.Push(99, 1) })
}

func TestDeadlinesPushIntoPastPanics(t *testing.T) {
	e := NewEngine(1)
	d := NewDeadlines(e, func(int) {})
	e.RunUntil(50)
	wantPanic(t, "before now", func() { d.Push(49, 0) })
}

func wantPanic(t *testing.T, msg string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, msg) {
			t.Fatalf("panic %v, want one containing %q", r, msg)
		}
	}()
	fn()
}

// dlEvent is what one dispatch, or the engine after one top-level op,
// showed; id -1 marks the latter. The last entry of a trace holds the final
// seq in place of pending.
type dlEvent struct {
	id       int
	now      Time
	executed uint64
	pending  int
}

// dlTrace replays an op stream on a fresh engine and returns what every
// dispatch saw. Each op is two bytes, a kind and an argument: an ordinary
// event, a push onto one of three queues (at a later or the same time as
// that queue's previous push), or, at top level, a RunUntil boundary or a
// full Run. Every even-numbered event, as it fires, executes the next op
// itself, so pushes also come from inside callbacks. With ref set each push
// is one ScheduleAt instead of a Deadlines push: the reference the queue
// must be indistinguishable from.
func dlTrace(ops []byte, ref bool) []dlEvent {
	e := NewEngine(1)
	var log []dlEvent
	var queues [3]*Deadlines[int]
	var last [3]Time
	nextID, cur := 0, 0
	var fired func(id int)
	newEvent := func(at Time, k int) {
		id := nextID
		nextID++
		if k < 0 || ref {
			e.ScheduleAt(at, func() { fired(id) })
		} else {
			queues[k].Push(at, id)
		}
	}
	step := func(nested bool) {
		kind, b := ops[cur]%8, ops[cur+1]
		cur += 2
		// Deltas from 0 to beyond the wheel's ~17 s reach, so pushes land in
		// the near ring, each level and the far list.
		delta := Time(b/6) << [...]uint{0, 3, 10, 18, 26, 34}[b%6]
		switch kind {
		case 0, 1:
			newEvent(e.Now()+delta, -1)
		case 2, 3, 4, 5:
			k := int(b % 3)
			at := max(last[k], e.Now())
			if kind != 5 {
				at += delta
			}
			last[k] = at
			newEvent(at, k)
		case 6:
			if !nested {
				e.RunUntil(e.Now() + delta)
			}
		case 7:
			if !nested {
				e.Run()
			}
		}
	}
	fired = func(id int) {
		log = append(log, dlEvent{id, e.Now(), e.Executed(), e.Pending()})
		if id%2 == 0 && cur+1 < len(ops) {
			step(true)
		}
	}
	for k := range queues {
		queues[k] = NewDeadlines(e, fired)
	}
	for cur+1 < len(ops) {
		step(false)
		log = append(log, dlEvent{-1, e.Now(), e.Executed(), e.Pending()})
	}
	e.Run()
	return append(log, dlEvent{-1, e.Now(), e.Executed(), int(e.seq)})
}

func checkDeadlinesOps(t *testing.T, ops []byte) {
	t.Helper()
	got, want := dlTrace(ops, false), dlTrace(ops, true)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("step %d: Deadlines saw %+v, one ScheduleAt per push %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Deadlines logged %d steps, one ScheduleAt per push %d", len(got), len(want))
	}
}

// TestDeadlinesMatchSchedule: on seeded op streams mixing ordinary events,
// three queues, equal timestamps, pushes from inside callbacks and RunUntil
// boundaries, the dispatch sequence, Now at each dispatch, Executed, Pending
// and the final seq equal those of one ScheduleAt per push.
func TestDeadlinesMatchSchedule(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 800)
		rng.Read(ops)
		checkDeadlinesOps(t, ops)
	}
}

func FuzzDeadlinesOps(f *testing.F) {
	f.Add([]byte{2, 0, 3, 6, 0, 1, 6, 12, 5, 0, 7, 0})
	f.Add([]byte{4, 200, 2, 1, 5, 2, 1, 250, 6, 251, 2, 2, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		checkDeadlinesOps(t, ops)
	})
}
