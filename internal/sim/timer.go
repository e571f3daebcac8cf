package sim

// Timer is a reusable handle for a callback that is scheduled repeatedly —
// the PMD iterate loop, NAPI polling, tx-drain kicks. The callback is bound
// once at construction; each (re)arm files a slab record and draws one
// sequence number, exactly like Schedule with a fresh closure would, so
// switching a call site from Schedule to a Timer leaves same-seed event
// order unchanged while eliminating the per-arm closure allocation.
//
// A Timer is single-shot per arm: firing disarms it, and the callback may
// immediately rearm. Arming an already-armed timer cancels the previous
// arm first (last schedule wins).
type Timer struct {
	eng *Engine
	fn  func()
	// idx is the armed slab record, or -1 when idle.
	idx int32
}

// NewTimer binds fn to a new idle timer on e.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn, idx: -1}
}

// Schedule arms the timer to fire after delay d (negative treated as zero).
func (t *Timer) Schedule(d Time) {
	if d < 0 {
		d = 0
	}
	t.ScheduleAt(t.eng.now + d)
}

// ScheduleAt arms the timer to fire at absolute virtual time at.
func (t *Timer) ScheduleAt(at Time) {
	t.Stop()
	idx := t.eng.newRecord(at)
	r := &t.eng.q.slab[idx]
	r.fn = t.fn
	r.timer = t
	t.idx = idx
	t.eng.q.insert(idx)
}

// Stop cancels a pending arm; firing is suppressed. Stopping an idle timer
// is a no-op. The cancelled record is reclaimed lazily by the queue.
func (t *Timer) Stop() {
	if t.idx < 0 {
		return
	}
	r := &t.eng.q.slab[t.idx]
	r.dead = true
	r.timer = nil
	t.eng.q.live--
	t.idx = -1
}
