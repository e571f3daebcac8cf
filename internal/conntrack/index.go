package conntrack

// slot is one cell of a shard's index: a connection, which of its two keys
// this cell holds — {Zone, Orig}, or {Zone, reply} when reply is set — and
// that key's tupleHash. The hash is a tag (a probe compares it before
// loading the record) and what growth, SetShards and deletion re-place the
// cell by, so none of them rehashes a key. A nil connection marks a free
// slot.
type slot struct {
	hash  uint32
	reply bool
	c     *Conn
}

// key returns the tuple this slot indexes its connection under.
func (s *slot) key() *Tuple {
	if s.reply {
		return &s.c.reply
	}
	return &s.c.Orig
}

// ctShard is one partition of the connection index. Real OVS (and the
// kernel's nf_conntrack) partition the hash table so concurrent PMD
// threads contend on bucket locks, not one table lock; the simulator is
// single-goroutine per engine, so shards here model that partitioning —
// each lookup touches exactly one shard, and the per-shard lookup counters
// let scenarios verify the hot path never fans out — without needing
// mutexes that virtual time would never contend.
//
// A shard is a flat, power-of-two sized, linearly probed table kept at most
// 3/4 full, with the semantics of the map[{zone, tuple}]*Conn it replaced:
// putting an equal key overwrites, deletion is by key. Deletion shifts the
// following run back over the hole instead of leaving a tombstone:
// connections are committed and expired at the same steady rate, and
// tombstones would lengthen every probe run until a rebuild.
type ctShard struct {
	slots   []slot
	n       int
	lookups uint64
}

// minSlots is the size a shard starts at.
const minSlots = 8

func newShard() ctShard {
	return ctShard{slots: make([]slot, minSlots)}
}

// home is the slot a probe for hash h starts at: the top log2(len(slots))
// bits of a multiplicative remix. h's residue modulo the shard count is the
// same for every key of a shard, so h's own low bits would leave most home
// slots of a power-of-two shard count unused.
func (s *ctShard) home(h uint32) uint32 {
	return uint32(uint64(h*0x9e3779b1) * uint64(len(s.slots)) >> 32)
}

// locate returns the index of the slot holding key {zone, tu}, whose
// tupleHash is h, or the free slot that ends its probe run.
func (s *ctShard) locate(h uint32, zone uint16, tu *Tuple) uint32 {
	m := uint32(len(s.slots) - 1)
	i := s.home(h)
	for ; ; i = (i + 1) & m {
		sl := &s.slots[i]
		if sl.c == nil || sl.hash == h && sl.c.Zone == zone && *sl.key() == *tu {
			return i
		}
	}
}

// find returns the connection indexed under {zone, tu}, or nil.
func (s *ctShard) find(h uint32, zone uint16, tu *Tuple) *Conn {
	return s.slots[s.locate(h, zone, tu)].c
}

// put enters nw, replacing whatever slot held an equal key.
func (s *ctShard) put(nw slot) {
	if i := s.locate(nw.hash, nw.c.Zone, nw.key()); s.slots[i].c != nil {
		s.slots[i] = nw
		return
	}
	s.insert(nw)
}

// insert adds sl, whose key the table does not hold, growing the table
// first when the new slot would take it past 3/4 full.
func (s *ctShard) insert(sl slot) {
	if s.n++; s.n*4 > len(s.slots)*3 {
		s.grow()
	}
	s.place(sl)
}

// grow doubles the table, re-placing every slot by its stored hash.
func (s *ctShard) grow() {
	old := s.slots
	s.slots = make([]slot, 2*len(old))
	for _, sl := range old {
		if sl.c != nil {
			s.place(sl)
		}
	}
}

// place writes sl into the first free slot of its probe run.
func (s *ctShard) place(sl slot) {
	m := uint32(len(s.slots) - 1)
	i := s.home(sl.hash)
	for s.slots[i].c != nil {
		i = (i + 1) & m
	}
	s.slots[i] = sl
}

// del removes key {zone, tu}, whose tupleHash is h, if present.
func (s *ctShard) del(h uint32, zone uint16, tu *Tuple) {
	i := s.locate(h, zone, tu)
	if s.slots[i].c == nil {
		return
	}
	// Backward shift: walk the run after the hole and pull back every slot
	// whose home does not lie (cyclically) after the hole, so each stays
	// reachable from its home without crossing a free slot.
	m := uint32(len(s.slots) - 1)
	for j := (i + 1) & m; s.slots[j].c != nil; j = (j + 1) & m {
		if home := s.home(s.slots[j].hash); (j-home)&m >= (j-i)&m {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = slot{}
	s.n--
}
