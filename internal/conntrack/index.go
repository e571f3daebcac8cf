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
func (sl slot) key(t *Table, c *Conn) Tuple {
	if sl.ref&1 != 0 {
		return t.replyTuple(c)
	}
	return c.Orig
}

// bucket is one 64-byte cache line of slots. Its used slots come first, so
// the first free slot ends a scan and a bucket is full when its last slot
// is used.
type bucket [bucketSlots]slot

const bucketSlots = 8

// ctShard is one partition of the connection index. Real OVS (and the
// kernel's nf_conntrack) partition the hash table so concurrent PMD
// threads contend on bucket locks, not one table lock; the simulator is
// single-goroutine per engine, so shards here model that partitioning —
// each lookup touches exactly one shard, and the per-shard lookup counters
// let scenarios verify the hot path never fans out — without needing
// mutexes that virtual time would never contend.
//
// A shard is an array of buckets, linearly probed bucket by bucket: a key
// sits in its home bucket or in one reached from there through full
// buckets only, so a bucket with a free slot ends a probe. It is kept at
// most 7/8 full and grows by half past that (58 % to 7/8 full once past
// its first few buckets), with the semantics of the map[{zone, tuple}]*Conn
// it replaced: putting an equal key overwrites, deletion is by key.
// Deletion shifts the following run back over the hole instead of leaving
// a tombstone: connections are committed and expired at the same steady
// rate, and tombstones would lengthen every probe run until a rebuild.
type ctShard struct {
	buckets []bucket
	n       int
	lookups uint64
}

// minBuckets is the size a shard starts at: an idle table costs one
// 64-byte bucket a shard.
const minBuckets = 1

// home is the bucket a probe for hash h starts at: a multiplicative remix
// of h scaled to the bucket count. h's residue modulo the shard count is
// the same for every key of a shard, so h's own low bits would leave most
// home buckets unused.
func (s *ctShard) home(h uint32) uint32 {
	return uint32(uint64(h*0x9e3779b1) * uint64(len(s.buckets)) >> 32)
}

// next returns the bucket after b, wrapping at the end.
func (s *ctShard) next(b uint32) uint32 {
	if b++; b == uint32(len(s.buckets)) {
		return 0
	}
	return b
}

// locate returns the bucket and slot holding key {zone, tu}, whose
// tupleHash is h, or the free slot that ends its probe. It loads a record
// only on a tag match, and computes a reply key only when the zone matches
// too.
func (s *ctShard) locate(t *Table, h uint32, zone uint16, tu *Tuple) (uint32, int) {
	for b := s.home(h); ; b = s.next(b) {
		for i, sl := range &s.buckets[b] {
			if sl.ref == 0 {
				return b, i
			}
			if sl.hash == h {
				if c := sl.conn(t); c.Zone == zone && sl.key(t, c) == *tu {
					return b, i
				}
			}
		}
	}
}

// find returns the connection indexed under {zone, tu}, or nil.
func (s *ctShard) find(t *Table, h uint32, zone uint16, tu *Tuple) *Conn {
	if b, i := s.locate(t, h, zone, tu); s.buckets[b][i].ref != 0 {
		return s.buckets[b][i].conn(t)
	}
	return nil
}

// put enters nw, which indexes key {zone, tu}, replacing whatever slot held
// an equal key. A new key takes the free slot that ended its probe, which is
// where place would write it, unless the shard must grow first.
func (s *ctShard) put(t *Table, nw slot, zone uint16, tu *Tuple) {
	b, i := s.locate(t, nw.hash, zone, tu)
	if s.buckets[b][i].ref == 0 {
		if s.crowded() {
			s.insert(nw)
			return
		}
		s.n++
	}
	s.buckets[b][i] = nw
}

// crowded reports whether one more key would take the shard past 7/8 full.
func (s *ctShard) crowded() bool { return (s.n+1)*8 > len(s.buckets)*bucketSlots*7 }

// insert adds sl, whose key the table does not hold, first growing the
// table by half (one bucket to two) when sl would take it past 7/8 full.
func (s *ctShard) insert(sl slot) {
	if s.crowded() {
		old := *s
		s.buckets = make([]bucket, max(len(old.buckets)*3/2, len(old.buckets)+1))
		old.each(s.place)
	}
	s.n++
	s.place(sl)
}

// each calls f on every used slot.
func (s *ctShard) each(f func(slot)) {
	for b := range s.buckets {
		for _, sl := range &s.buckets[b] {
			if sl.ref != 0 {
				f(sl)
			}
		}
	}
}

// place writes sl into the first free slot of its probe.
func (s *ctShard) place(sl slot) {
	for b := s.home(sl.hash); ; b = s.next(b) {
		if bk := &s.buckets[b]; bk[bucketSlots-1].ref == 0 {
			for i := range bk {
				if bk[i].ref == 0 {
					bk[i] = sl
					return
				}
			}
		}
	}
}

// del removes key {zone, tu}, whose tupleHash is h, if present.
func (s *ctShard) del(t *Table, h uint32, zone uint16, tu *Tuple) {
	b, i := s.locate(t, h, zone, tu)
	if s.buckets[b][i].ref == 0 {
		return
	}
	s.n--
	// Backward shift by bucket: while the bucket that lost a slot was full,
	// a key stored past it may have probed through it. The first such key of
	// the run after it moves into the freed slot, freeing one in its own
	// bucket in turn; a bucket that was not full ends the run.
	for s.take(b, i) {
		hole := b
		for i = -1; i < 0; {
			b = s.next(b)
			if i = s.movable(b, hole); i < 0 && s.buckets[b][bucketSlots-1].ref == 0 {
				return
			}
		}
		s.buckets[hole][bucketSlots-1] = s.buckets[b][i]
	}
}

// take frees slot i of bucket b, moving the bucket's last used slot into
// it, and reports whether b was full.
func (s *ctShard) take(b uint32, i int) bool {
	bk, last := &s.buckets[b], bucketSlots-1
	for bk[last].ref == 0 {
		last--
	}
	bk[i], bk[last] = bk[last], slot{}
	return last == bucketSlots-1
}

// movable returns the first slot of bucket b whose key's probe passed
// through bucket hole: the distance from its home to b is at least the
// distance from hole to b. It returns -1 when no key did.
func (s *ctShard) movable(b, hole uint32) int {
	nb := uint32(len(s.buckets))
	for i, sl := range &s.buckets[b] {
		if sl.ref != 0 && (b+nb-s.home(sl.hash))%nb >= (b+nb-hole)%nb {
			return i
		}
	}
	return -1
}
