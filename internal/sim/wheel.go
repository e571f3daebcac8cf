package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// The event queue is a hierarchical timer wheel over a slab of typed event
// records, with a small sorted "near" ring holding the imminent horizon.
//
// It allocates nothing in steady state: records live in a free-listed slab,
// Timers bind their callback once, and ScheduleArgAt threads a pointer-sized
// argument through a pre-bound function without capturing.
//
// Determinism contract: events are delivered in exactly the same
// (at, seq) order as the heap — seq increments once per schedule call, the
// near ring is kept sorted by (at, seq), and the wheel only feeds the near
// ring whole level-0 slots at a time (sorted on entry), so all same-seed
// outputs are byte-identical to the heap implementation's.
//
// Geometry: level-0 slots are 2^10 ns (~1 µs) wide, each level is 256 slots,
// and three levels cover ~17 s of lookahead; anything beyond sits in an
// unsorted far list whose minimum is tracked. Invariants:
//
//   - every live record with at < horizon is in the near ring (sorted);
//   - every record in a wheel level or the far list has at >= horizon;
//   - refill() only runs when the near ring is empty, so the horizon may
//     jump to the earliest remaining event time.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	// shift0 is the log2 of the level-0 slot width in nanoseconds.
	shift0 = 10
)

// evRecord is one scheduled event in the slab.
type evRecord struct {
	at  Time
	seq uint64
	// fn is the no-argument callback (one-shot closures, Timer firings).
	fn func()
	// argFn/arg are the typed-callback form used by ScheduleArgAt: a
	// pre-bound function plus a pointer-sized argument, so per-event
	// scheduling captures nothing.
	argFn func(any)
	arg   any
	// timer backlinks to the owning Timer so firing disarms it.
	timer *Timer
	// next chains records within a wheel slot or on the free list.
	next int32
	// dead marks a cancelled record awaiting reclamation.
	dead bool
}

// wheelLevel is one ring of 256 slots; chains are unordered (sorted when a
// slot is flushed to the near ring).
type wheelLevel struct {
	slots  [wheelSlots]int32
	bitmap [wheelSlots / 64]uint64
	count  int
}

func (w *wheelLevel) push(slot int, slab []evRecord, idx int32) {
	slab[idx].next = w.slots[slot]
	w.slots[slot] = idx
	w.bitmap[slot>>6] |= 1 << uint(slot&63)
	w.count++
}

// take removes and returns a slot's chain head.
func (w *wheelLevel) take(slot int) int32 {
	head := w.slots[slot]
	w.slots[slot] = -1
	w.bitmap[slot>>6] &^= 1 << uint(slot&63)
	return head
}

// earliestOffset returns the circular distance from startBit to the first
// occupied slot, searching startBit, startBit+1, ... mod 256. The caller
// guarantees the level is non-empty.
func (w *wheelLevel) earliestOffset(startBit int) int {
	const words = wheelSlots / 64
	wi := startBit >> 6
	// First word: bits at and above startBit.
	if word := w.bitmap[wi] &^ ((1 << uint(startBit&63)) - 1); word != 0 {
		return wi<<6 + bits.TrailingZeros64(word) - startBit
	}
	for k := 1; k < words; k++ {
		i := (wi + k) & (words - 1)
		if word := w.bitmap[i]; word != 0 {
			off := i<<6 + bits.TrailingZeros64(word) - startBit
			if off < 0 {
				off += wheelSlots
			}
			return off
		}
	}
	// Wrapped back to the start word: bits below startBit.
	word := w.bitmap[wi] & ((1 << uint(startBit&63)) - 1)
	return wi<<6 + bits.TrailingZeros64(word) - startBit + wheelSlots
}

// evQueue is the full event structure.
type evQueue struct {
	slab    []evRecord
	freeTop int32

	// near is the sorted imminent ring, consumed from nearHead.
	near     []int32
	nearHead int
	// horizon bounds the near ring: live events below it are in near.
	horizon Time

	levels [wheelLevels]wheelLevel

	// far holds events beyond the top level's window, unsorted.
	far    []int32
	farMin Time

	// count is records resident anywhere (including cancelled ones not
	// yet reclaimed); live excludes cancelled records.
	count int
	live  int
}

func newEvQueue() *evQueue {
	q := &evQueue{freeTop: -1}
	for l := range q.levels {
		for s := range q.levels[l].slots {
			q.levels[l].slots[s] = -1
		}
	}
	return q
}

// alloc takes a record from the free list or grows the slab.
func (q *evQueue) alloc() int32 {
	if q.freeTop >= 0 {
		idx := q.freeTop
		q.freeTop = q.slab[idx].next
		return idx
	}
	q.slab = append(q.slab, evRecord{})
	return int32(len(q.slab) - 1)
}

// freeRec clears a record's references and returns it to the free list.
func (q *evQueue) freeRec(idx int32) {
	r := &q.slab[idx]
	r.fn = nil
	r.argFn = nil
	r.arg = nil
	r.timer = nil
	r.dead = false
	r.next = q.freeTop
	q.freeTop = idx
	q.count--
}

// insert registers a freshly filled record (count accounting plus
// placement).
func (q *evQueue) insert(idx int32) {
	q.count++
	q.live++
	q.place(idx)
}

// place files a record into the near ring, a wheel level, or the far list
// according to its timestamp relative to the horizon.
func (q *evQueue) place(idx int32) {
	at := q.slab[idx].at
	if at < q.horizon {
		q.nearInsert(idx)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		shift := uint(shift0 + l*wheelBits)
		if uint64(at>>shift)-uint64(q.horizon>>shift) < wheelSlots {
			q.levels[l].push(int((at>>shift)&wheelMask), q.slab, idx)
			return
		}
	}
	if len(q.far) == 0 || at < q.farMin {
		q.farMin = at
	}
	q.far = append(q.far, idx)
}

// nearInsert adds a record to the sorted near ring (binary search; equal
// timestamps order by seq, and seq is monotonic, so a new event lands after
// existing equal-time ones).
func (q *evQueue) nearInsert(idx int32) {
	r := &q.slab[idx]
	lo, hi := q.nearHead, len(q.near)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := &q.slab[q.near[mid]]
		if m.at < r.at || (m.at == r.at && m.seq < r.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.near = append(q.near, 0)
	copy(q.near[lo+1:], q.near[lo:])
	q.near[lo] = idx
}

// popDue pops the earliest live record if it is due at or before limit,
// refilling the near ring from the wheel as needed; -1 means no live record
// is due by then (the earliest one, if any, stays queued). One walk of the
// near ring finds, checks and removes the record. The caller owns the
// returned record and must freeRec it.
func (q *evQueue) popDue(limit Time) int32 {
	for {
		for q.nearHead < len(q.near) {
			idx := q.near[q.nearHead]
			dead := q.slab[idx].dead
			if !dead && q.slab[idx].at > limit {
				return -1
			}
			q.nearHead++
			if q.nearHead == len(q.near) {
				q.near = q.near[:0]
				q.nearHead = 0
			}
			if !dead {
				return idx
			}
			q.freeRec(idx)
		}
		if q.count == 0 {
			return -1
		}
		q.refill()
	}
}

// refill advances the wheel by one step: drain the far list, cascade a
// higher-level slot, or flush the earliest level-0 slot into the near ring.
// Only called with the near ring empty, so the horizon may move freely up
// to the earliest remaining event.
func (q *evQueue) refill() {
	// Candidate start times: the far minimum and each level's earliest
	// occupied slot start. Ties prefer the far list, then higher levels,
	// so members scatter downward before a lower slot is flushed.
	const winnerFar = -1
	winner := -2
	var m Time
	if len(q.far) > 0 {
		winner, m = winnerFar, q.farMin
	}
	for l := wheelLevels - 1; l >= 0; l-- {
		if q.levels[l].count == 0 {
			continue
		}
		shift := uint(shift0 + l*wheelBits)
		frontier := q.horizon >> shift
		off := q.levels[l].earliestOffset(int(frontier & wheelMask))
		t := (frontier + Time(off)) << shift
		if winner == -2 || t < m {
			winner, m = l, t
		}
	}
	switch {
	case winner == -2:
		// Only cancelled records can remain; they live in near and are
		// reclaimed by the pop loop. Nothing to refill.
	case winner == winnerFar:
		// The far list holds the minimum: jump the horizon to it and
		// re-place everything (the minimum record is guaranteed to land
		// in level 0).
		if m > q.horizon {
			q.horizon = m
		}
		q.drainFar()
	case winner == 0:
		end := m + (1 << shift0)
		if len(q.far) > 0 && q.farMin < end {
			// A far event falls inside the slot about to be flushed:
			// fold the far list into the wheel first (no horizon
			// move), then re-evaluate.
			q.drainFar()
			return
		}
		q.flushLevel0(int((m >> shift0) & wheelMask))
		q.horizon = end
	default:
		// Cascade the winning higher-level slot: advance the horizon to
		// its start (safe: it is the global minimum and near is empty),
		// then re-place members — each lands in a lower level.
		if m > q.horizon {
			q.horizon = m
		}
		l := winner
		shift := uint(shift0 + l*wheelBits)
		idx := q.levels[l].take(int((m >> shift) & wheelMask))
		for idx >= 0 {
			nxt := q.slab[idx].next
			q.levels[l].count--
			if q.slab[idx].dead {
				q.freeRec(idx)
			} else {
				q.place(idx)
			}
			idx = nxt
		}
	}
}

// drainFar re-places every far-list record against the current horizon.
func (q *evQueue) drainFar() {
	list := q.far
	q.far = q.far[:0]
	q.farMin = 0
	// Collect survivors back via place(); iterate over the detached list.
	for _, idx := range list {
		if q.slab[idx].dead {
			q.freeRec(idx)
			continue
		}
		q.place(idx)
	}
}

// flushLevel0 moves one level-0 slot's chain into the (empty) near ring and
// sorts it by (at, seq).
func (q *evQueue) flushLevel0(slot int) {
	idx := q.levels[0].take(slot)
	for idx >= 0 {
		nxt := q.slab[idx].next
		q.levels[0].count--
		if q.slab[idx].dead {
			q.freeRec(idx)
		} else {
			q.near = append(q.near, idx)
		}
		idx = nxt
	}
	// Insertion sort: slots hold few events. A chain built by direct pushes
	// arrives exactly reversed, the insertion sort's quadratic case, so a
	// long one takes the general sort: (at, seq) is a total order, so both
	// deliver the same sequence.
	near, slab := q.near, q.slab
	if len(near) > 32 {
		slices.SortFunc(near, func(a, b int32) int {
			return cmp.Or(cmp.Compare(slab[a].at, slab[b].at), cmp.Compare(slab[a].seq, slab[b].seq))
		})
		return
	}
	for i := 1; i < len(near); i++ {
		x := near[i]
		at, seq := slab[x].at, slab[x].seq
		j := i - 1
		for j >= 0 && (slab[near[j]].at > at || (slab[near[j]].at == at && slab[near[j]].seq > seq)) {
			near[j+1] = near[j]
			j--
		}
		near[j+1] = x
	}
}
