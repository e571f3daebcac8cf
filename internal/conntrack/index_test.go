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
	t      *Table // for the reply keys
	shards []map[connKey]*Conn
}

func newRefIndex(ct *Table, n int) *refIndex {
	r := &refIndex{t: ct, shards: make([]map[connKey]*Conn, n)}
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
	for _, k := range []connKey{{c.Zone, c.Orig}, {c.Zone, r.t.replyTuple(c)}} {
		r.shardFor(k)[k] = c
	}
}

func (r *refIndex) remove(c *Conn) {
	for _, k := range []connKey{{c.Zone, c.Orig}, {c.Zone, r.t.replyTuple(c)}} {
		delete(r.shardFor(k), k)
	}
}

func (r *refIndex) setShards(n int) {
	old := r.shards
	*r = *newRefIndex(r.t, n)
	for _, m := range old {
		for k, c := range m {
			r.shardFor(k)[k] = c
		}
	}
}

// checkShard verifies the bucketed open-addressing invariants of shard i:
// every used slot names a record handed out under its own ref that is not
// on the free list, stored hashes are the keys' own and belong to this
// shard, each bucket's used slots come before its free ones, every key is
// reachable from its home bucket through full buckets only, the count is
// right and the load is at most 7/8.
func checkShard(t testing.TB, ct *Table, i int) {
	t.Helper()
	s := &ct.shards[i]
	nb := len(s.buckets)
	if nb < minBuckets {
		t.Fatalf("shard %d: %d buckets, want >= %d", i, nb, minBuckets)
	}
	full := func(b uint32) bool { return s.buckets[b][bucketSlots-1].ref != 0 }
	free := map[ref]bool{}
	for r := ct.free; r != 0; r = ct.conn(r).links[onZone].next {
		free[r] = true
	}
	occupied := 0
	for b := range s.buckets {
		for j, sl := range s.buckets[b] {
			if sl.ref == 0 {
				for _, after := range s.buckets[b][j:] {
					if after.ref != 0 {
						t.Fatalf("shard %d bucket %d: used slot after free slot %d", i, b, j)
					}
				}
				break
			}
			occupied++
			if r := ref(sl.ref >> 1); r == 0 || r >= ct.recs || sl.conn(ct).self != r || free[r] {
				t.Fatalf("shard %d bucket %d slot %d: ref %d names no live record (%d handed out)", i, b, j, r, ct.recs)
			}
			c := sl.conn(ct)
			if key := sl.key(ct, c); sl.hash != tupleHash(c.Zone, key) || int(sl.hash%uint32(len(ct.shards))) != i {
				t.Fatalf("shard %d bucket %d slot %d: %s stored under the wrong hash or shard", i, b, j, key)
			}
			for k := s.home(sl.hash); k != uint32(b); k = s.next(k) {
				if !full(k) {
					t.Fatalf("shard %d bucket %d slot %d: bucket %d between home %d and entry is not full", i, b, j, k, s.home(sl.hash))
				}
			}
		}
	}
	if occupied != s.n || s.n*8 > nb*bucketSlots*7 {
		t.Fatalf("shard %d holds %d keys, counts %d, in %d buckets", i, occupied, s.n, nb)
	}
}

// checkNAT is the NAT ledger: the side table's records in use are exactly
// those of the live connections given a translation, each naming the one
// it was given, and no live connection names a free record.
func checkNAT(t testing.TB, ct *Table, live []*Conn, given map[*Conn]NAT) {
	t.Helper()
	free := map[uint32]bool{}
	for r := ct.natFree; r != 0; r = ct.nats[r].pool {
		if free[r] || len(free) >= len(ct.nats) {
			t.Fatalf("NAT free list loops at record %d", r)
		}
		free[r] = true
	}
	used := map[uint32]bool{}
	for _, c := range live {
		nat := given[c]
		switch {
		case c.nat == 0 && nat.Kind == NATNone:
			continue
		case c.nat == 0 || int(c.nat) >= len(ct.nats) || free[c.nat] || used[c.nat]:
			t.Fatalf("connection %s names NAT record %d (free %v, shared %v, %d records), given %+v",
				c.Orig, c.nat, free[c.nat], used[c.nat], len(ct.nats), nat)
		case ct.nats[c.nat].NAT != nat:
			t.Fatalf("connection %s translates by %+v, given %+v", c.Orig, ct.nats[c.nat].NAT, nat)
		}
		used[c.nat] = true
	}
	if inUse := len(ct.nats) - 1 - len(free); inUse != len(used) {
		t.Fatalf("%d NAT records in use, %d live connections translate", inUse, len(used))
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
// can collide on a key. It returns the largest bucket array seen, so callers
// can tell growth happened.
func runIndexOps(t testing.TB, ops []byte) (maxBuckets int) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ref := newRefIndex(ct, DefaultShards)
	var live []*Conn
	timeout := map[*Conn]sim.Time{} // the timeout each live connection was installed with
	given := map[*Conn]NAT{}        // the translation each live connection was installed with
	drop := func(gone map[*Conn]bool) {
		kept := live[:0]
		for _, c := range live {
			if !gone[c] {
				kept = append(kept, c)
			}
		}
		live = kept
	}
	// expireRef removes from the reference every connection past its
	// deadline, reachable by a key or not — what Sweep is to remove from
	// the table: the expiry lists hold every installed connection.
	expireRef := func() map[*Conn]bool {
		gone := map[*Conn]bool{}
		for _, c := range live {
			if eng.Now() >= c.expires {
				gone[c] = true
				ref.remove(c)
			}
		}
		return gone
	}
	for step := 0; step+3 < len(ops); step += 4 {
		op, a, b, x := ops[step]%16, ops[step+1], ops[step+2], ops[step+3]
		switch {
		case op <= 5: // install, with or without translation
			c := ct.allocConn()
			c.Zone, c.Orig = opTuple(a, b)
			given[c] = NAT{}
			if op >= 3 {
				given[c] = opNAT(x)
				ct.setNAT(c, given[c])
			}
			c.State = StateEstablished
			c.class = classOf(c.State)
			c.zi = ct.zone(c.Zone).zi
			timeout[c] = sim.Time(1+x%8) * sim.Millisecond
			c.expires = eng.Now() + timeout[c]
			ref.install(c)
			ct.install(c) // onto the expiry list for timeout[c]
			live = append(live, c)
		case op <= 8 && len(live) > 0: // remove by key
			c := live[(int(a)<<8|int(b))%len(live)]
			ref.remove(c)
			ct.removeConn(c)
			drop(map[*Conn]bool{c: true})
		case op == 9 && len(live) > 0: // probe a live connection's own keys
			c := live[(int(a)<<8|int(b))%len(live)]
			for _, tu := range []Tuple{c.Orig, ct.replyTuple(c)} {
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
		case op == 13 && a < 64: // sweep, then arm one timer per timeout still in use
			gone, timeouts := expireRef(), map[sim.Time]bool{}
			for _, c := range live {
				if !gone[c] {
					timeouts[timeout[c]] = true
				}
			}
			expired, pending := ct.Expired, eng.Pending()
			ct.EnableWheelExpiry(true)
			if got := int(ct.Expired - expired); got != len(gone) {
				t.Fatalf("step %d: enabling the wheel reclaimed %d, reference %d", step, got, len(gone))
			}
			drop(gone)
			if got, want := eng.Pending()-pending, len(timeouts); got != want {
				t.Fatalf("step %d: wheel armed %d timers, live connections use %d timeouts", step, got, want)
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
		checkNAT(t, ct, live, given)
		for i := range ct.shards {
			maxBuckets = max(maxBuckets, len(ct.shards[i].buckets))
		}
	}
	return maxBuckets
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
		if got := runIndexOps(t, randomIndexOps(seed, 5000)); got <= minBuckets {
			t.Fatalf("seed %d: no shard ever grew (max %d buckets)", seed, got)
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

// TestCollidedConnExpiresAtOwnDeadline: a connection whose two keys later
// NAT installs took over is reachable by no key, yet it stays on its expiry
// list and the wheel removes it at its own deadline. Its removal deletes its
// keys by key, so the two connections holding them lose their reply keys
// with it.
func TestCollidedConnExpiresAtOwnDeadline(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Timeouts.SynSent = 10 * sim.Millisecond
	ct.EnableWheelExpiry(true)
	ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn), 1, true, NAT{}) // due at 10 ms
	tu, _ := TupleOf(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn))

	// B's reply key is the first connection's original tuple, C's its
	// reply tuple; both are due at 11 ms.
	eng.RunUntil(sim.Millisecond)
	ct.Process(tcpPkt(ipB, natIP, 80, 5555, hdr.TCPSyn), 1, true, NAT{Kind: DNAT, Addr: ipA, Port: 1000})
	ct.Process(tcpPkt(ipRouter, ipB, 7, 80, hdr.TCPSyn), 1, true, NAT{Kind: SNAT, Addr: ipA, Port: 1000})
	b, _ := ct.Find(1, Tuple{SrcIP: ipB, DstIP: natIP, Proto: hdr.IPProtoTCP, SrcPort: 80, DstPort: 5555})
	c, _ := ct.Find(1, Tuple{SrcIP: ipRouter, DstIP: ipB, Proto: hdr.IPProtoTCP, SrcPort: 7, DstPort: 80})
	if got, _ := ct.Find(1, tu); got != b || b == nil {
		t.Fatalf("original key -> %p, want B %p", got, b)
	}
	if got, _ := ct.Find(1, tu.Reverse()); got != c || c == nil {
		t.Fatalf("reply key -> %p, want C %p", got, c)
	}

	eng.RunUntil(10*sim.Millisecond - 1)
	if ct.Len() != 3 || ct.Expired != 0 {
		t.Fatalf("len=%d expired=%d before the first deadline, want 3/0", ct.Len(), ct.Expired)
	}
	eng.RunUntil(10 * sim.Millisecond)
	if ct.Len() != 2 || ct.Expired != 1 {
		t.Fatalf("len=%d expired=%d at the first deadline, want 2/1", ct.Len(), ct.Expired)
	}
	for _, k := range []Tuple{tu, tu.Reverse()} {
		if got, ok := ct.Find(1, k); ok {
			t.Fatalf("key %s -> %p after the first connection expired, want gone", k, got)
		}
	}
	if got, _ := ct.Find(1, b.Orig); got != b {
		t.Fatalf("B's original key lost with the first connection")
	}
	eng.RunUntil(11 * sim.Millisecond)
	if ct.Len() != 0 || ct.Expired != 3 {
		t.Fatalf("len=%d expired=%d at 11 ms, want 0/3", ct.Len(), ct.Expired)
	}
}

// linShard is the shard the bucketed one replaced: a flat, power-of-two
// sized, linearly probed slot array kept at most 3/4 full, deleting by
// backward shift slot by slot. It is the second reference of the
// placement-sensitive tests.
type linShard struct {
	slots []slot
	n     int
}

const minLinSlots = 8

func newLinShard() *linShard { return &linShard{slots: make([]slot, minLinSlots)} }

func (s *linShard) home(h uint32) uint32 {
	return uint32(uint64(h*0x9e3779b1) * uint64(len(s.slots)) >> 32)
}

func (s *linShard) locate(t *Table, h uint32, zone uint16, tu *Tuple) uint32 {
	m := uint32(len(s.slots) - 1)
	for i := s.home(h); ; i = (i + 1) & m {
		sl := s.slots[i]
		if sl.ref == 0 {
			return i
		}
		if sl.hash == h {
			if c := sl.conn(t); c.Zone == zone && sl.key(t, c) == *tu {
				return i
			}
		}
	}
}

func (s *linShard) find(t *Table, h uint32, zone uint16, tu *Tuple) *Conn {
	if sl := s.slots[s.locate(t, h, zone, tu)]; sl.ref != 0 {
		return sl.conn(t)
	}
	return nil
}

func (s *linShard) put(t *Table, nw slot, zone uint16, tu *Tuple) {
	if i := s.locate(t, nw.hash, zone, tu); s.slots[i].ref != 0 {
		s.slots[i] = nw
		return
	}
	if s.n++; s.n*4 > len(s.slots)*3 {
		old := s.slots
		s.slots = make([]slot, 2*len(old))
		for _, sl := range old {
			if sl.ref != 0 {
				s.place(sl)
			}
		}
	}
	s.place(nw)
}

func (s *linShard) place(sl slot) {
	m := uint32(len(s.slots) - 1)
	i := s.home(sl.hash)
	for s.slots[i].ref != 0 {
		i = (i + 1) & m
	}
	s.slots[i] = sl
}

func (s *linShard) del(t *Table, h uint32, zone uint16, tu *Tuple) {
	i := s.locate(t, h, zone, tu)
	if s.slots[i].ref == 0 {
		return
	}
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

// check verifies the linear shard's invariants: every slot is reachable
// from its home without crossing a free one, the count is right and the
// load is at most 3/4.
func (s *linShard) check(t testing.TB) {
	t.Helper()
	m, occupied := uint32(len(s.slots)-1), 0
	for j, sl := range s.slots {
		if sl.ref == 0 {
			continue
		}
		occupied++
		for k := s.home(sl.hash); k != uint32(j); k = (k + 1) & m {
			if s.slots[k].ref == 0 {
				t.Fatalf("slot %d: free slot %d between home %d and entry", j, k, s.home(sl.hash))
			}
		}
	}
	if occupied != s.n || s.n*4 > len(s.slots)*3 {
		t.Fatalf("linear shard holds %d keys, counts %d, in %d slots", occupied, s.n, len(s.slots))
	}
}

// homedTuples returns tuples of zone 1 whose homes under home are the given
// ones, in order.
func homedTuples(t *testing.T, home func(uint32) uint32, homes []uint32) []Tuple {
	tuples := make([]Tuple, 0, len(homes))
	src := uint32(0)
	for _, want := range homes {
		for ; ; src++ {
			tu := Tuple{SrcIP: hdr.IP4(src), DstIP: ipB, Proto: hdr.IPProtoTCP, SrcPort: 1000, DstPort: 80}
			if home(tupleHash(1, tu)) == want {
				tuples = append(tuples, tu)
				src++
				break
			}
			if src > 1<<20 {
				t.Fatal("no tuple found for home")
			}
		}
	}
	return tuples
}

// TestIndexBackwardShiftAcrossWrap builds a probe run of the linear shard
// that crosses the end of the slot array (homes 6, 7, 7, 7, 0 occupy slots
// 6, 7, 0, 1, 2) and deletes from it in every position: the slots behind
// the hole must be pulled back across the wrap, except the one already at
// its home.
func TestIndexBackwardShiftAcrossWrap(t *testing.T) {
	homes := []uint32{6, 7, 7, 7, 0}
	tuples := homedTuples(t, newLinShard().home, homes)
	for victim := range homes {
		ct := &Table{}
		s := newLinShard()
		conns := make([]*Conn, len(tuples))
		for i, tu := range tuples {
			conns[i] = ct.allocConn()
			conns[i].Zone, conns[i].Orig = 1, tu
			s.put(ct, slot{hash: tupleHash(1, tu), ref: uint32(conns[i].self) << 1}, 1, &tu)
		}
		if len(s.slots) != minLinSlots || s.slots[2].conn(ct) != conns[4] {
			t.Fatalf("setup: run does not wrap as intended")
		}
		s.del(ct, tupleHash(1, tuples[victim]), 1, &tuples[victim])
		s.check(t)
		for i, tu := range tuples {
			got := s.find(ct, tupleHash(1, tu), 1, &tu)
			if i == victim && got != nil {
				t.Fatalf("victim %d still found", victim)
			}
			if i != victim && got != conns[i] {
				t.Fatalf("victim %d: connection %d lost", victim, i)
			}
		}
	}
}

// TestIndexBucketShiftAcrossWrap fills a shard of four buckets to 7/8 so
// that buckets 2, 3 and 0 are full and the run crosses the end of the
// array: bucket 3 holds only keys homed there, keys homed at 2 and 3 spill
// into bucket 0 and keys homed at 0 into bucket 1. It deletes every key in
// turn: a hole in bucket 2 skips full bucket 3, which has no key to give,
// and pulls a key back across the wrap, whose own hole pulls one back from
// bucket 1. After each deletion the shard must be well formed and find
// every other key, as the linear shard holding the same keys does.
func TestIndexBucketShiftAcrossWrap(t *testing.T) {
	const nb = 4
	homes := []uint32{3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 0, 0, 0, 0, 0, 0, 1, 1}
	tuples := homedTuples(t, (&ctShard{buckets: make([]bucket, nb)}).home, homes)
	for victim := range homes {
		ct := &Table{shards: []ctShard{{buckets: make([]bucket, nb)}}}
		s, lin := &ct.shards[0], newLinShard()
		conns := make([]*Conn, len(tuples))
		for i, tu := range tuples {
			conns[i] = ct.allocConn()
			conns[i].Zone, conns[i].Orig = 1, tu
			sl := slot{hash: tupleHash(1, tu), ref: uint32(conns[i].self) << 1}
			s.put(ct, sl, 1, &tu)
			lin.put(ct, sl, 1, &tu)
		}
		homeOf := func(b, j int) uint32 { return s.home(s.buckets[b][j].hash) }
		if len(s.buckets) != nb || s.buckets[1][3].ref == 0 || s.buckets[1][4].ref != 0 ||
			homeOf(3, 7) != 3 || homeOf(0, 0) != 2 || homeOf(0, 2) != 3 || homeOf(1, 0) != 0 {
			t.Fatalf("setup: buckets do not hold the run intended")
		}
		checkShard(t, ct, 0)
		s.del(ct, tupleHash(1, tuples[victim]), 1, &tuples[victim])
		lin.del(ct, tupleHash(1, tuples[victim]), 1, &tuples[victim])
		checkShard(t, ct, 0)
		lin.check(t)
		for i, tu := range tuples {
			h := tupleHash(1, tu)
			got, want := s.find(ct, h, 1, &tu), lin.find(ct, h, 1, &tu)
			if i == victim && got != nil {
				t.Fatalf("victim %d still found", victim)
			}
			if got != want || i != victim && got != conns[i] {
				t.Fatalf("victim %d: connection %d -> %p, linear shard %p, want %p", victim, i, got, want, conns[i])
			}
		}
	}
}
