package conntrack

// slot is one cell of a shard's index: ref is a connection's ref shifted
// left by one, its low bit set when the cell holds the connection's reply
// key {Zone, replyTuple} rather than {Zone, Orig}, and hash is that key's
// tupleHash. The hash is a tag (a probe compares it before loading the
// record) and what growth, SetShards and deletion re-place the cell by, so
// none of them rehashes a key. A zero ref marks a free slot.
type slot struct {
	hash uint32
	ref  uint32
}

// conn returns the connection a used slot names.
func (sl slot) conn(t *Table) *Conn { return t.conn(ref(sl.ref >> 1)) }

// key returns the tuple sl indexes c, its connection, under: the reply key
// is computed, not stored.
func (sl slot) key(c *Conn) Tuple {
	if sl.ref&1 != 0 {
		return replyTuple(c)
	}
	return c.Orig
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
// tupleHash is h, or the free slot that ends its probe run. It loads a
// record only on a tag match, and computes a reply key only when the zone
// matches too.
func (s *ctShard) locate(t *Table, h uint32, zone uint16, tu *Tuple) uint32 {
	m := uint32(len(s.slots) - 1)
	i := s.home(h)
	for ; ; i = (i + 1) & m {
		sl := s.slots[i]
		if sl.ref == 0 {
			return i
		}
		if sl.hash == h {
			if c := sl.conn(t); c.Zone == zone && sl.key(c) == *tu {
				return i
			}
		}
	}
}

// find returns the connection indexed under {zone, tu}, or nil.
func (s *ctShard) find(t *Table, h uint32, zone uint16, tu *Tuple) *Conn {
	if sl := s.slots[s.locate(t, h, zone, tu)]; sl.ref != 0 {
		return sl.conn(t)
	}
	return nil
}

// put enters nw, which indexes key {zone, tu}, replacing whatever slot held
// an equal key.
func (s *ctShard) put(t *Table, nw slot, zone uint16, tu *Tuple) {
	if i := s.locate(t, nw.hash, zone, tu); s.slots[i].ref != 0 {
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
		if sl.ref != 0 {
			s.place(sl)
		}
	}
}

// place writes sl into the first free slot of its probe run.
func (s *ctShard) place(sl slot) {
	m := uint32(len(s.slots) - 1)
	i := s.home(sl.hash)
	for s.slots[i].ref != 0 {
		i = (i + 1) & m
	}
	s.slots[i] = sl
}

// del removes key {zone, tu}, whose tupleHash is h, if present.
func (s *ctShard) del(t *Table, h uint32, zone uint16, tu *Tuple) {
	i := s.locate(t, h, zone, tu)
	if s.slots[i].ref == 0 {
		return
	}
	// Backward shift: walk the run after the hole and pull back every slot
	// whose home does not lie (cyclically) after the hole, so each stays
	// reachable from its home without crossing a free slot.
	m := uint32(len(s.slots) - 1)
	for j := (i + 1) & m; s.slots[j].ref != 0; j = (j + 1) & m {
		if home := s.home(s.slots[j].hash); (j-home)&m >= (j-i)&m {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = slot{}
	s.n--
}
