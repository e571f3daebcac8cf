package nicsim

import "ovsxdp/internal/flow"

// FlowTable is the NIC's hardware flow-offload table: the tc/ASAP²-style
// rule memory that lets established flows bypass the host CPU entirely.
// Unlike RSS (which only picks a receive queue), a flow-table entry carries
// an opaque cookie the datapath uses to forward the packet without touching
// its software caches.
//
// The table is exact-match on the full flow key — the hardware analog of
// the EMC, not of the masked megaflow classifier — so lookup is one map
// probe, O(1) regardless of occupancy. Capacity is bounded (real rule
// memories hold thousands, not millions, of entries); when full, Install
// evicts the entry with the lowest observed hit rate, ties broken LRU.
// An entry that saw traffic in the current or previous readback interval
// is never displaced by a new install (admission control: a hot resident
// rule beats an unproven candidate), so a saturated table of active flows
// refuses new installs instead of thrashing.
//
// Hardware counts matches privately; Readback is the periodic driver sweep
// that hands the per-entry hit deltas back to the host. The per-interval
// delta it captures doubles as each entry's eviction rate.
//
// All bookkeeping is plain integers and map/slice operations — Lookup and
// Install allocate nothing in steady state, and iteration for readback and
// eviction walks an order slice, never a Go map, so every decision is
// deterministic for a given operation sequence.
type FlowTable[C comparable] struct {
	capacity int // configured capacity
	clamp    int // fault-injected effective capacity; 0 = unclamped

	entries map[flow.Key]*HWFlow[C]
	// order holds the same entries in a deterministic sequence (swap-remove
	// on delete); readback and victim scans iterate it instead of the map.
	order []*HWFlow[C]
	// seq is the lookup clock for LRU tie-breaking.
	seq uint64
	// blocked short-circuits install attempts while the table is full of
	// entries with nonzero rates; cleared whenever rates or occupancy can
	// have changed (readback, uninstall, clamp release).
	blocked bool

	// Counters: the conservation ledger is
	// Installs == Evictions + Uninstalls + Len().
	Installs   uint64 // entries admitted
	Evictions  uint64 // entries displaced by capacity pressure (or clamp)
	Uninstalls uint64 // entries removed explicitly (flow delete / flush)
	Refused    uint64 // install attempts declined by admission control
	Hits       uint64 // packets matched in hardware
	Readbacks  uint64 // counter readback sweeps
}

// HWFlow is one installed hardware flow-table entry; C is the type of the
// cookie the datapath names its flow by.
type HWFlow[C comparable] struct {
	Key    flow.Key
	Cookie C

	// hits counts hardware matches since install; hitsRead marks the
	// portion already surrendered by Readback.
	hits     uint64
	hitsRead uint64
	// rate is the hit delta captured by the last readback sweep — the
	// per-interval rate eviction ranks by.
	rate uint64
	// lastHit is the table's lookup clock at the most recent match (LRU).
	lastHit uint64
	// slot is the entry's index in order, for O(1) swap-remove.
	slot int
}

// score is the entry's liveness for eviction ranking: the last interval's
// rate plus any hits accumulated since, so a just-installed entry that is
// already passing traffic outranks a gone-quiet one.
func (e *HWFlow[C]) score() uint64 { return e.rate + e.hits - e.hitsRead }

// NewFlowTable builds an empty table with the given capacity.
func NewFlowTable[C comparable](capacity int) *FlowTable[C] {
	if capacity < 1 {
		capacity = 1
	}
	return &FlowTable[C]{
		capacity: capacity,
		entries:  make(map[flow.Key]*HWFlow[C], capacity),
	}
}

// Capacity returns the configured capacity.
func (t *FlowTable[C]) Capacity() int { return t.capacity }

// EffectiveCapacity returns the capacity in force, accounting for an
// active pressure clamp.
func (t *FlowTable[C]) EffectiveCapacity() int {
	if t.clamp > 0 && t.clamp < t.capacity {
		return t.clamp
	}
	return t.capacity
}

// Len returns the number of installed entries.
func (t *FlowTable[C]) Len() int { return len(t.order) }

// Lookup matches a packet's exact key against the rule memory, counting
// the hit in hardware. The returned cookie is whatever Install stored.
func (t *FlowTable[C]) Lookup(key flow.Key) (C, bool) {
	e, ok := t.entries[key]
	if !ok {
		var none C
		return none, false
	}
	e.hits++
	t.seq++
	e.lastHit = t.seq
	t.Hits++
	return e.Cookie, true
}

// Install admits an exact-match rule. An existing entry for the key has
// its cookie replaced in place. When the table is full, the lowest-scored
// entry is evicted to make room — unless every resident entry is still
// passing traffic, in which case the install is refused (admission
// control). The evicted entry, if any, is returned so the caller can
// unmark the displaced flow.
func (t *FlowTable[C]) Install(key flow.Key, cookie C) (evicted *HWFlow[C], ok bool) {
	if e, exists := t.entries[key]; exists {
		e.Cookie = cookie
		return nil, true
	}
	if len(t.order) >= t.EffectiveCapacity() {
		if t.blocked {
			t.Refused++
			return nil, false
		}
		v := t.victim()
		if v == nil || v.score() > 0 {
			t.blocked = true
			t.Refused++
			return nil, false
		}
		evicted = v
		t.remove(v)
		t.Evictions++
	}
	e := &HWFlow[C]{Key: key, Cookie: cookie, slot: len(t.order)}
	t.entries[key] = e
	t.order = append(t.order, e)
	t.Installs++
	return evicted, true
}

// Uninstall removes the rule for key (flow delete, flush, invalidation),
// returning it. A rule that is not resident is a no-op.
func (t *FlowTable[C]) Uninstall(key flow.Key) (*HWFlow[C], bool) {
	e, ok := t.entries[key]
	if !ok {
		return nil, false
	}
	t.remove(e)
	t.Uninstalls++
	t.blocked = false
	return e, true
}

// Flush uninstalls every rule, invoking fn (when non-nil) with each
// removed entry — the hardware side of a datapath flow flush.
func (t *FlowTable[C]) Flush(fn func(*HWFlow[C])) {
	for _, e := range t.order {
		delete(t.entries, e.Key)
		t.Uninstalls++
		if fn != nil {
			fn(e)
		}
	}
	t.order = t.order[:0]
	t.blocked = false
}

// SetCapacity reconfigures the table size, force-evicting lowest-scored
// entries (reported through fn) when shrinking below occupancy.
func (t *FlowTable[C]) SetCapacity(n int, fn func(*HWFlow[C])) {
	if n < 1 {
		n = 1
	}
	t.capacity = n
	t.blocked = false
	t.evictDown(fn)
}

// Readback is the periodic driver sweep: for every entry with unreported
// hardware hits, fn receives the cookie and the delta since the previous
// sweep, and the delta becomes the entry's eviction rate. Entries that saw
// nothing have their rate decay to zero, making them evictable again.
func (t *FlowTable[C]) Readback(fn func(cookie C, delta uint64)) {
	t.Readbacks++
	t.blocked = false
	for _, e := range t.order {
		delta := e.hits - e.hitsRead
		e.hitsRead = e.hits
		e.rate = delta
		if delta > 0 && fn != nil {
			fn(e.Cookie, delta)
		}
	}
}

// Clamp applies (n > 0) or releases (n <= 0) a fault-injected capacity
// limit — the offload-table-pressure fault. Clamping below the current
// occupancy force-evicts lowest-scored entries down to the limit,
// reporting each displaced entry through fn.
func (t *FlowTable[C]) Clamp(n int, fn func(*HWFlow[C])) {
	t.clamp = n
	t.blocked = false
	t.evictDown(fn)
}

// evictDown force-evicts lowest-scored entries until occupancy fits the
// effective capacity.
func (t *FlowTable[C]) evictDown(fn func(*HWFlow[C])) {
	for len(t.order) > t.EffectiveCapacity() {
		v := t.victim()
		if fn != nil {
			fn(v)
		}
		t.remove(v)
		t.Evictions++
	}
}

// victim returns the entry eviction would displace: lowest score, ties
// broken by least-recent hit. Deterministic: the scan walks order, whose
// sequence depends only on the operation history.
func (t *FlowTable[C]) victim() *HWFlow[C] {
	var v *HWFlow[C]
	for _, e := range t.order {
		if v == nil || e.score() < v.score() ||
			(e.score() == v.score() && e.lastHit < v.lastHit) {
			v = e
		}
	}
	return v
}

// remove unlinks an entry: map delete plus swap-remove from order.
func (t *FlowTable[C]) remove(e *HWFlow[C]) {
	delete(t.entries, e.Key)
	last := len(t.order) - 1
	moved := t.order[last]
	t.order[e.slot] = moved
	moved.slot = e.slot
	t.order[last] = nil
	t.order = t.order[:last]
}
