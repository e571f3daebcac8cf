package sim

import "fmt"

// Deadlines is a FIFO of callbacks whose due times never decrease: the idle
// deadlines of a revalidator (now plus a constant timeout) or the frames in
// flight on a line-rate-paced wire. Each Push draws one sequence number,
// exactly as a ScheduleAt call would, but only the head of the queue is
// filed in the wheel, under its own stored (at, seq); when it fires, the
// next entry is filed before fn runs. Since due times and seqs both rise
// along the queue, the head is its earliest entry, so dispatch order,
// Executed and every later seq are those of one ScheduleAt per entry, while
// a pending entry costs one ring slot instead of a slab record and a
// closure.
type Deadlines[T any] struct {
	eng  *Engine
	fn   func(T)
	fire func() // d.pop, bound once
	// ring holds n entries from head; its length is zero or a power of two.
	ring    []deadline[T]
	head, n int
	last    Time
}

type deadline[T any] struct {
	at  Time
	seq uint64
	v   T
}

// NewDeadlines returns an empty queue on e whose entries run fn.
func NewDeadlines[T any](e *Engine, fn func(T)) *Deadlines[T] {
	d := &Deadlines[T]{eng: e, fn: fn}
	d.fire = d.pop
	return d
}

// Push queues fn(v) to run at absolute virtual time at. A time before now
// or before the previous push is a bug in the caller and panics.
func (d *Deadlines[T]) Push(at Time, v T) {
	if at < d.last {
		panic(fmt.Sprintf("sim: deadline at %v before the previous one at %v", at, d.last))
	}
	seq := d.eng.draw(at)
	d.last = at
	if d.n == len(d.ring) {
		d.grow()
	}
	d.ring[(d.head+d.n)&(len(d.ring)-1)] = deadline[T]{at, seq, v}
	if d.n++; d.n == 1 {
		d.fileHead()
	}
}

func (d *Deadlines[T]) fileHead() {
	h := &d.ring[d.head]
	d.eng.file(h.at, h.seq, d.fire)
}

// pop is the head's callback: it dequeues the head, files the next entry
// and runs fn on the head's value.
func (d *Deadlines[T]) pop() {
	h := &d.ring[d.head]
	v := h.v
	*h = deadline[T]{}
	d.head = (d.head + 1) & (len(d.ring) - 1)
	if d.n--; d.n > 0 {
		d.fileHead()
	}
	d.fn(v)
}

// grow doubles the ring, unwrapping the entries to start at 0.
func (d *Deadlines[T]) grow() {
	ring := make([]deadline[T], max(16, 2*len(d.ring)))
	for i := range d.n {
		ring[i] = d.ring[(d.head+i)&(len(d.ring)-1)]
	}
	d.ring, d.head = ring, 0
}
