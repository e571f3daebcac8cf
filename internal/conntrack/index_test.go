package conntrack

import (
	"math/rand"
	"testing"

	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// connKey and refIndex are the index the flat shards replaced — one Go map
// per shard, both of a connection's keys assigned at install, both deleted
// by key at removal — kept as the reference the differential tests compare
// against.
type connKey struct {
	zone  uint16
	tuple Tuple
}

type refIndex struct {
	shards []map[connKey]*Conn
}

func newRefIndex(n int) *refIndex {
	r := &refIndex{shards: make([]map[connKey]*Conn, n)}
	for i := range r.shards {
		r.shards[i] = make(map[connKey]*Conn)
	}
	return r
}

func (r *refIndex) shardFor(k connKey) map[connKey]*Conn {
	return r.shards[tupleHash(k.zone, k.tuple)%uint32(len(r.shards))]
}

func (r *refIndex) get(zone uint16, tu Tuple) *Conn {
	k := connKey{zone, tu}
	return r.shardFor(k)[k]
}

func (r *refIndex) install(c *Conn) {
	for _, k := range []connKey{{c.Zone, c.Orig}, {c.Zone, replyTuple(c)}} {
		r.shardFor(k)[k] = c
	}
}

func (r *refIndex) remove(c *Conn) {
	for _, k := range []connKey{{c.Zone, c.Orig}, {c.Zone, replyTuple(c)}} {
		delete(r.shardFor(k), k)
	}
}

func (r *refIndex) setShards(n int) {
	old := r.shards
	*r = *newRefIndex(n)
	for _, m := range old {
		for k, c := range m {
			r.shardFor(k)[k] = c
		}
	}
}

// reachable returns every connection some key still leads to — what the
// map-based Sweep and EnableWheelExpiry walked.
func (r *refIndex) reachable() map[*Conn]bool {
	set := map[*Conn]bool{}
	for _, m := range r.shards {
		for _, c := range m {
			set[c] = true
		}
	}
	return set
}

// checkShard verifies the open-addressing invariants of shard i: stored
// hashes are the keys' own and belong to this shard, every slot is reachable
// from its home without crossing a free one, the count is right and the load
// is at most 3/4.
func checkShard(t testing.TB, ct *Table, i int) {
	t.Helper()
	s := &ct.shards[i]
	n := len(s.slots)
	if n < minSlots || n&(n-1) != 0 {
		t.Fatalf("shard %d: %d slots, want a power of two >= %d", i, n, minSlots)
	}
	m := uint32(n - 1)
	occupied := 0
	for j := range s.slots {
		sl := &s.slots[j]
		if sl.c == nil {
			continue
		}
		occupied++
		if sl.hash != tupleHash(sl.c.Zone, *sl.key()) || int(sl.hash%uint32(len(ct.shards))) != i {
			t.Fatalf("shard %d slot %d: %s stored under the wrong hash or shard", i, j, sl.key())
		}
		for k := s.home(sl.hash); k != uint32(j); k = (k + 1) & m {
			if s.slots[k].c == nil {
				t.Fatalf("shard %d slot %d: free slot %d between home %d and entry", i, j, k, s.home(sl.hash))
			}
		}
	}
	if occupied != s.n || s.n*4 > n*3 {
		t.Fatalf("shard %d holds %d keys, counts %d, in %d slots", i, occupied, s.n, n)
	}
}

// checkIndex requires the table and the reference to agree on everything
// observable — per-shard sizes, and for every reference key the same
// connection, so every live connection is reachable by exactly the keys the
// maps would still hold — and the shards to be well formed.
func checkIndex(t testing.TB, ct *Table, ref *refIndex, live int) {
	t.Helper()
	if ct.Len() != live {
		t.Fatalf("Len = %d, harness holds %d", ct.Len(), live)
	}
	sizes := ct.ShardSizes(nil)
	if len(sizes) != len(ref.shards) {
		t.Fatalf("%d shards, reference %d", len(sizes), len(ref.shards))
	}
	for i, m := range ref.shards {
		if sizes[i] != len(m) {
			t.Fatalf("shard %d holds %d keys, reference %d", i, sizes[i], len(m))
		}
		checkShard(t, ct, i)
		for k, want := range m {
			if got := ct.get(k.zone, &k.tuple); got != want {
				t.Fatalf("key %d/%s -> %p, reference %p", k.zone, k.tuple, got, want)
			}
		}
	}
}

// Op streams draw tuples, zones and translations from a space small enough
// that keys repeat: a reply key lands on another connection's key, a
// translated tuple is its own reply, a removed key is installed again.
var (
	opIPs   = [8]hdr.IP4{ipA, ipB, natIP, ipRouter, hdr.MakeIP4(10, 0, 1, 1), hdr.MakeIP4(10, 0, 1, 2), hdr.MakeIP4(10, 9, 9, 9), hdr.MakeIP4(172, 16, 0, 1)}
	opPorts = [4]uint16{80, 1000, 40000, 40001}
)

func opTuple(a, b byte) (uint16, Tuple) {
	proto := hdr.IPProtoTCP
	if b&0x40 != 0 {
		proto = hdr.IPProtoUDP
	}
	return 1 + uint16(b>>7), Tuple{
		SrcIP: opIPs[a&7], DstIP: opIPs[a>>3&7], Proto: proto,
		SrcPort: opPorts[b&3], DstPort: opPorts[b>>2&3],
	}
}

func opNAT(a byte) NAT {
	nat := NAT{Kind: NATKind(a % 3), Addr: opIPs[a>>2&7]}
	if a&0x80 != 0 {
		nat.Port = opPorts[a>>5&3]
	}
	return nat
}

// runIndexOps replays an op stream (four bytes per op: opcode, a, b, c)
// against a table and the reference, comparing after every step.
// Connections are installed directly, without Process's lookup first, so two
// can collide on a key. It returns the largest slot array seen, so callers
// can tell growth happened.
func runIndexOps(t testing.TB, ops []byte) (maxSlots int) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ref := newRefIndex(DefaultShards)
	var live []*Conn
	drop := func(gone map[*Conn]bool) {
		kept := live[:0]
		for _, c := range live {
			if !gone[c] {
				kept = append(kept, c)
			}
		}
		live = kept
	}
	// expireRef removes from the reference every reachable connection past
	// its deadline — what Sweep is to remove from the table.
	expireRef := func() map[*Conn]bool {
		gone := map[*Conn]bool{}
		for c := range ref.reachable() {
			if eng.Now() >= c.expires {
				gone[c] = true
			}
		}
		for c := range gone {
			ref.remove(c)
		}
		return gone
	}
	for step := 0; step+3 < len(ops); step += 4 {
		op, a, b, x := ops[step]%16, ops[step+1], ops[step+2], ops[step+3]
		switch {
		case op <= 5: // install, with or without translation
			c := ct.allocConn()
			c.Zone, c.Orig = opTuple(a, b)
			if op >= 3 {
				c.NAT = opNAT(x)
			}
			c.State = StateEstablished
			c.class = classOf(c.State)
			c.zs = ct.zone(c.Zone)
			c.expires = eng.Now() + sim.Time(1+x%8)*sim.Millisecond
			ref.install(c)
			ct.install(c)
			live = append(live, c)
		case op <= 8 && len(live) > 0: // remove by key
			c := live[(int(a)<<8|int(b))%len(live)]
			ref.remove(c)
			ct.removeConn(c)
			drop(map[*Conn]bool{c: true})
		case op == 9 && len(live) > 0: // probe a live connection's own keys
			c := live[(int(a)<<8|int(b))%len(live)]
			for _, tu := range []Tuple{c.Orig, c.reply} {
				if got, want := ct.get(c.Zone, &tu), ref.get(c.Zone, tu); got != want {
					t.Fatalf("step %d: get(%s) = %p, reference %p", step, tu, got, want)
				}
			}
		case op == 10 && a < 64: // repartition
			n := 1 + int(b)%12
			ct.SetShards(n)
			ref.setShards(n)
		case op == 11: // let deadlines pass
			eng.RunUntil(eng.Now() + sim.Time(x%4)*sim.Millisecond)
		case op == 12 && a < 64: // sweep
			gone := expireRef()
			if n := ct.Sweep(); n != len(gone) {
				t.Fatalf("step %d: Sweep removed %d, reference %d", step, n, len(gone))
			}
			drop(gone)
		case op == 13 && a < 64: // reclaim the expired, arm every other reachable connection once
			gone := expireRef()
			expired, pending := ct.Expired, eng.Pending()
			ct.EnableWheelExpiry(true)
			if got := int(ct.Expired - expired); got != len(gone) {
				t.Fatalf("step %d: enabling the wheel reclaimed %d, reference %d", step, got, len(gone))
			}
			drop(gone)
			if got, want := eng.Pending()-pending, len(ref.reachable()); got != want {
				t.Fatalf("step %d: wheel armed %d timers, reference reaches %d connections", step, got, want)
			}
			ct.EnableWheelExpiry(false)
			if eng.Pending() != pending {
				t.Fatalf("step %d: %d timers left armed", step, eng.Pending()-pending)
			}
		default: // lookup, hit or miss, reclaiming an expired hit
			zone, tu := opTuple(a, b)
			want := ref.get(zone, tu)
			if want != nil && eng.Now() >= want.expires {
				ref.remove(want)
				drop(map[*Conn]bool{want: true})
				want = nil
			}
			if got := ct.lookup(zone, &tu); got != want {
				t.Fatalf("step %d: lookup(%d/%s) = %p, reference %p", step, zone, tu, got, want)
			}
		}
		checkIndex(t, ct, ref, len(live))
		for i := range ct.shards {
			maxSlots = max(maxSlots, len(ct.shards[i].slots))
		}
	}
	return maxSlots
}

func randomIndexOps(seed int64, n int) []byte {
	ops := make([]byte, 4*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestConnIndexMatchesReference is the differential test: seeded random op
// streams, identical behaviour to the map-per-shard reference at every step.
func TestConnIndexMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		if got := runIndexOps(t, randomIndexOps(seed, 5000)); got <= minSlots {
			t.Fatalf("seed %d: no shard ever grew (max %d slots)", seed, got)
		}
	}
}

func FuzzConnIndexOps(f *testing.F) {
	f.Add(randomIndexOps(1, 64))
	f.Add(randomIndexOps(2, 512))
	// Two source-NATed connections sharing one translated reply key; remove
	// the first (its reply key, now the second's, goes with it), then sweep.
	f.Add([]byte{3, 0x08, 0x05, 0x89, 3, 0x0c, 0x05, 0x89, 6, 0, 0, 0, 11, 0, 0, 3, 11, 0, 0, 3, 11, 0, 0, 3, 12, 0, 0, 0})
	// A tuple that is its own reply, repartitioned, looked up and removed.
	f.Add([]byte{0, 0x09, 0x05, 0, 10, 0, 0, 0, 14, 0x09, 0x05, 0, 6, 0, 0, 0})
	// The same key installed twice, the wheel armed over the collision.
	f.Add([]byte{0, 0x08, 0x01, 0, 0, 0x08, 0x01, 0, 13, 0, 0, 0, 6, 0, 0, 0, 6, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { runIndexOps(t, ops) })
}

// wrapTuples returns tuples of zone 1 whose home slots in a one-shard table
// of minSlots slots are the given ones, in order.
func wrapTuples(t *testing.T, homes []uint32) []Tuple {
	s := newShard()
	tuples := make([]Tuple, 0, len(homes))
	src := uint32(0)
	for _, home := range homes {
		for ; ; src++ {
			tu := Tuple{SrcIP: hdr.IP4(src), DstIP: ipB, Proto: hdr.IPProtoTCP, SrcPort: 1000, DstPort: 80}
			if s.home(tupleHash(1, tu)) == home {
				tuples = append(tuples, tu)
				src++
				break
			}
			if src > 1<<20 {
				t.Fatal("no tuple found for home slot")
			}
		}
	}
	return tuples
}

// TestIndexBackwardShiftAcrossWrap builds a probe run that crosses the end
// of the slot array (homes 6, 7, 7, 7, 0 occupy slots 6, 7, 0, 1, 2) and
// deletes from it in every position: the slots behind the hole must be
// pulled back across the wrap, except the one already at its home.
func TestIndexBackwardShiftAcrossWrap(t *testing.T) {
	homes := []uint32{6, 7, 7, 7, 0}
	tuples := wrapTuples(t, homes)
	for victim := range homes {
		s := newShard()
		conns := make([]*Conn, len(tuples))
		for i, tu := range tuples {
			conns[i] = &Conn{Zone: 1, Orig: tu}
			s.put(slot{hash: tupleHash(1, tu), c: conns[i]})
		}
		if len(s.slots) != minSlots || s.slots[2].c != conns[4] {
			t.Fatalf("setup: run does not wrap as intended")
		}
		s.del(tupleHash(1, tuples[victim]), 1, &tuples[victim])
		ct := &Table{shards: []ctShard{s}}
		checkShard(t, ct, 0)
		for i, tu := range tuples {
			got := s.find(tupleHash(1, tu), 1, &tu)
			if i == victim && got != nil {
				t.Fatalf("victim %d still found", victim)
			}
			if i != victim && got != conns[i] {
				t.Fatalf("victim %d: connection %d lost", victim, i)
			}
		}
	}
}
