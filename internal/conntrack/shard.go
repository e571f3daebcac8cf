package conntrack

import "sort"

// DefaultShards is the shard count a fresh table starts with, matching the
// "ct-shards" other_config default.
const DefaultShards = 8

func (t *Table) initShards(n int) {
	t.shards = make([]ctShard, n)
	for i := range t.shards {
		t.shards[i] = newShard()
	}
}

// tupleHash is a deterministic FNV-1a-style mix over the zone and tuple.
// Determinism matters: shard placement feeds per-shard occupancy stats,
// which appear in scenario output, so the hash must not vary by process
// (no runtime map hashing, no seeds).
func tupleHash(zone uint16, tu Tuple) uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		h ^= v
		h *= 16777619
		h ^= h >> 15
	}
	mix(uint32(zone))
	mix(uint32(tu.SrcIP))
	mix(uint32(tu.DstIP))
	mix(uint32(tu.Proto))
	mix(uint32(tu.SrcPort)<<16 | uint32(tu.DstPort))
	return h
}

// shardOf picks the shard of a key whose tupleHash is h. Shard occupancy
// and lookup counts appear in scenario output, so neither tupleHash's
// values nor this modulo may change.
func (t *Table) shardOf(h uint32) *ctShard {
	return &t.shards[h%uint32(len(t.shards))]
}

// get looks the tuple up in its shard, counting the probe; nil on a miss.
// The one tupleHash serves the shard choice, the home slot and the tag.
func (t *Table) get(zone uint16, tu *Tuple) *Conn {
	h := tupleHash(zone, *tu)
	s := t.shardOf(h)
	s.lookups++
	return s.find(h, zone, tu)
}

// index enters c under its original or reply key.
func (t *Table) index(c *Conn, reply bool) {
	sl := slot{reply: reply, c: c}
	sl.hash = tupleHash(c.Zone, *sl.key())
	t.shardOf(sl.hash).put(sl)
}

// unindex removes key {zone, tu}, whichever connection holds it.
func (t *Table) unindex(zone uint16, tu *Tuple) {
	h := tupleHash(zone, *tu)
	t.shardOf(h).del(h, zone, tu)
}

// eachConn calls fn once for every connection the index leads to, in slot
// order: at the connection's original-direction slot, or at its reply slot
// if a colliding install took the original key over. The probe that tells
// is not a packet's, so it is not counted in lookups. fn must leave the
// index alone.
func (t *Table) eachConn(fn func(*Conn)) {
	for i := range t.shards {
		for _, sl := range t.shards[i].slots {
			c := sl.c
			if c == nil {
				continue
			}
			if sl.reply {
				h := tupleHash(c.Zone, c.Orig)
				if t.shardOf(h).find(h, c.Zone, &c.Orig) == c {
					continue
				}
			}
			fn(c)
		}
	}
}

// NumShards returns the current shard count.
func (t *Table) NumShards() int { return len(t.shards) }

// SetShards repartitions the index into n shards (n < 1 is clamped to 1).
// Existing entries move by their stored hashes; per-shard lookup counters
// reset.
// Cold path: reconfiguration, not per-packet.
func (t *Table) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	if n == len(t.shards) {
		return
	}
	old := t.shards
	t.initShards(n)
	for i := range old {
		for _, sl := range old[i].slots {
			if sl.c != nil {
				t.shardOf(sl.hash).insert(sl)
			}
		}
	}
}

// ShardSizes appends each shard's entry count (both directions counted) to
// dst and returns it; pass a reused slice for allocation-free snapshots.
func (t *Table) ShardSizes(dst []int) []int {
	dst = dst[:0]
	for i := range t.shards {
		dst = append(dst, t.shards[i].n)
	}
	return dst
}

// ShardLookups appends each shard's lookup count to dst and returns it.
func (t *Table) ShardLookups(dst []uint64) []uint64 {
	dst = dst[:0]
	for i := range t.shards {
		dst = append(dst, t.shards[i].lookups)
	}
	return dst
}

// ZoneConns is one zone's live-connection count for stats surfaces.
type ZoneConns struct {
	Zone  uint16
	Conns int
}

// ConnsPerZone appends the per-zone live counts, sorted by zone, to dst
// and returns it. Zones with no live connections are omitted.
func (t *Table) ConnsPerZone(dst []ZoneConns) []ZoneConns {
	dst = dst[:0]
	for z, zs := range t.zones {
		if zs.count > 0 {
			dst = append(dst, ZoneConns{Zone: z, Conns: zs.count})
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].Zone < dst[j].Zone })
	return dst
}
