package dpcls

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet/hdr"
)

// refClassifier is the trivially correct reference the flat table is checked
// against: the classifier as it was before, one Go map per mask keyed by the
// masked copy of the key, with the same probe order, hit bookkeeping and
// resort cadence. It stores the refs the real classifier hands out and what
// each was installed as, so the two can be compared ref for ref.
type refSubtable struct {
	mask    flow.Mask
	entries map[flow.Key]Ref
	hits    uint64
}

type refEntry struct {
	mask      flow.Mask
	maskedKey flow.Key
	tag       int
}

type refClassifier struct {
	subtables       []*refSubtable
	resort          int
	lookups, probes uint64
	entryHits       map[Ref]uint64
	live            map[Ref]refEntry
}

func newRefClassifier() *refClassifier {
	return &refClassifier{resort: resortInterval, entryHits: map[Ref]uint64{}, live: map[Ref]refEntry{}}
}

func (r *refClassifier) subtable(mask flow.Mask) (int, *refSubtable) {
	for i, st := range r.subtables {
		if st.mask == mask {
			return i, st
		}
	}
	return -1, nil
}

func (r *refClassifier) lookup(key flow.Key) (found Ref, probes int) {
	r.lookups++
	for _, st := range r.subtables {
		probes++
		if e, ok := st.entries[key.Apply(st.mask)]; ok {
			st.hits++
			r.entryHits[e]++
			found = e
			break
		}
	}
	r.probes += uint64(probes)
	if r.resort--; r.resort <= 0 {
		r.resort = resortInterval
		sort.SliceStable(r.subtables, func(i, j int) bool { return r.subtables[i].hits > r.subtables[j].hits })
		for _, st := range r.subtables {
			st.hits = 0
		}
	}
	return found, probes
}

func (r *refClassifier) find(key flow.Key, mask flow.Mask) Ref {
	if _, st := r.subtable(mask); st != nil {
		return st.entries[key.Apply(mask)]
	}
	return 0
}

func (r *refClassifier) add(e Ref, re refEntry) {
	_, st := r.subtable(re.mask)
	if st == nil {
		st = &refSubtable{mask: re.mask, entries: map[flow.Key]Ref{}}
		r.subtables = append(r.subtables, st)
	}
	st.entries[re.maskedKey] = e
	r.live[e] = re
}

func (r *refClassifier) remove(e Ref) bool {
	re, ok := r.live[e]
	if !ok {
		return false
	}
	i, st := r.subtable(re.mask)
	delete(st.entries, re.maskedKey)
	delete(r.live, e)
	if len(st.entries) == 0 {
		r.subtables = append(r.subtables[:i], r.subtables[i+1:]...)
	}
	return true
}

func (r *refClassifier) len() (n int) {
	for _, st := range r.subtables {
		n += len(st.entries)
	}
	return n
}

// opMasks overlap on purpose: first-match-wins then depends on the probe
// order, which the reference must reproduce exactly. MaskAll covers every
// word, so its subtable sees the whole key space and grows; the zero mask
// covers none, so its one record stores no word and matches every key.
var opMasks = []flow.Mask{
	flow.NewMaskBuilder().InPort().IP4Src(32).Build(),
	flow.NewMaskBuilder().EthType().TPDst().Build(),
	flow.NewMaskBuilder().IP4Dst(24).IPProto().Build(),
	flow.MaskAll(),
	{},
}

// opKey draws from a key space small enough that masked keys collide, get
// replaced in place and get re-installed after removal.
func opKey(a byte) flow.Key {
	return (&flow.Fields{
		InPort: 1, EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoUDP,
		IP4Src: hdr.IP4(a % 24), IP4Dst: hdr.IP4(uint32(a%7) << 8), TPDst: uint16(a % 5),
	}).Pack()
}

// checkSubtable verifies the open-addressing invariants: stored hashes are
// the records' own, every record is reachable from its home slot without
// crossing a free one, the count is right and the load is at most 3/4.
func checkSubtable(t testing.TB, c *Classifier, st *subtable) {
	t.Helper()
	if n := len(st.slots); n < minSlots || n&(n-1) != 0 {
		t.Fatalf("slot count %d is not a power of two >= %d", n, minSlots)
	}
	m := uint32(len(st.slots) - 1)
	occupied := 0
	for i, s := range st.slots {
		if s.pos == 0 {
			continue
		}
		occupied++
		r := makeRef(st.hdr(s.pos).stamp, st.idx, s.pos)
		k := c.MaskedKey(r)
		if c.Get(r) != st.hdr(s.pos) || s.hash != st.hash(&k) || s.hash != st.hashRow(st.row(s.pos)) {
			t.Fatalf("slot %d: record at %d stored under the wrong stamp, position or hash", i, s.pos)
		}
		for j := s.hash & m; j != uint32(i); j = (j + 1) & m {
			if st.slots[j].pos == 0 {
				t.Fatalf("slot %d: free slot %d between home %d and record", i, j, s.hash&m)
			}
		}
	}
	if occupied != st.n || st.n == 0 || st.n*4 > len(st.slots)*3 {
		t.Fatalf("subtable holds %d records, counts %d, in %d slots", occupied, st.n, len(st.slots))
	}
}

// checkAgainst requires the classifier and the reference to agree on
// everything observable, the tables to be well formed, every ref ever handed
// out to resolve exactly while the reference holds it live, and the action
// table to hold exactly the live megaflows' lists (each insert brings its
// own).
func checkAgainst(t testing.TB, c *Classifier, ref *refClassifier, handles []Ref) {
	t.Helper()
	if c.Len() != ref.len() || len(c.subtables) != len(ref.subtables) || len(c.byMask) != len(ref.subtables) {
		t.Fatalf("len=%d subtables=%d index=%d, reference len=%d subtables=%d",
			c.Len(), len(c.subtables), len(c.byMask), ref.len(), len(ref.subtables))
	}
	if c.Lookups != ref.lookups || c.SubtableProbes != ref.probes {
		t.Fatalf("lookups=%d probes=%d, reference %d/%d", c.Lookups, c.SubtableProbes, ref.lookups, ref.probes)
	}
	for i, st := range c.subtables {
		if st.mask != ref.subtables[i].mask || c.byMask[st.mask] != st || c.byIdx[st.idx] != st {
			t.Fatalf("subtable %d out of order or missing from the mask index", i)
		}
		checkSubtable(t, c, st)
	}
	refs := c.Refs(nil)
	if len(refs) != ref.len() {
		t.Fatalf("dump has %d entries, reference %d", len(refs), ref.len())
	}
	for _, r := range refs {
		if _, ok := ref.live[r]; !ok {
			t.Fatalf("dumped ref %#x is not live in the reference", r)
		}
	}
	for _, h := range handles {
		re, live := ref.live[h]
		e := c.Get(h)
		switch {
		case live != (e != nil) || live != c.Live(h):
			t.Fatalf("ref %#x resolves to %v (Live %v), reference live=%v", h, e, c.Live(h), live)
		case live && (c.Mask(h) != re.mask || c.MaskedKey(h) != re.maskedKey || tag(c, h) != re.tag):
			t.Fatalf("ref %#x resolves to %s, reference %+v", h, c.String(h), re)
		}
	}
	if len(c.acts.index) != ref.len() || len(c.acts.lists)-1 != len(c.acts.index)+len(c.acts.free) {
		t.Fatalf("action table holds %d lists (%d slots, %d free) for %d megaflows",
			len(c.acts.index), len(c.acts.lists), len(c.acts.free), ref.len())
	}
}

// opCoverage is what an op stream exercised, so callers can tell it
// reached the cases they rely on.
type opCoverage struct {
	// maxSlots is the largest slot array seen (growth happened).
	maxSlots int
	// reused counts new subtables placed in a byIdx slot a subtable of
	// another mask held; the refs to that one's records, all stale, are
	// among the handles every step checks.
	reused int
	// flushedReuse counts flushes followed by an insert.
	flushedReuse int
}

// runOps replays an op stream (three bytes per op: opcode, a, b) against a
// classifier and the reference, comparing after every step.
func runOps(t testing.TB, ops []byte) (cov opCoverage) {
	c, ref := New(0x79b9+7), newRefClassifier()
	var handles []Ref       // every ref ever handed out, live or stale
	var idxMask []flow.Mask // the mask each byIdx slot last held
	flushed := false
	for step := 0; step+2 < len(ops); step += 3 {
		op, a, b := ops[step]%8, ops[step+1], ops[step+2]
		switch {
		case op <= 2: // insert, or replace in place
			key, mask := opKey(a), opMasks[int(b)%len(opMasks)]
			prev := ref.find(key, mask)
			subtables := len(c.subtables)
			r := c.Insert(key, mask, act(step))
			if st := c.byMask[mask]; len(c.subtables) > subtables {
				if int(st.idx) == len(idxMask) {
					idxMask = append(idxMask, mask)
				} else if idxMask[st.idx] != mask {
					cov.reused++
				}
				idxMask[st.idx] = mask
			}
			if flushed {
				cov.flushedReuse++
				flushed = false
			}
			switch {
			case prev != 0 && r != prev:
				t.Fatalf("step %d: replacement handed out a new ref", step)
			case prev == 0:
				if c.Get(r) == nil {
					t.Fatalf("step %d: fresh ref %#x does not resolve", step, r)
				}
				handles = append(handles, r)
			}
			ref.add(r, refEntry{mask, key.Apply(mask), step})
		case op <= 4 && len(handles) > 0: // remove a live ref or a stale one
			r := handles[(int(a)<<8|int(b))%len(handles)]
			want := ref.remove(r)
			if got := c.Remove(r); got != want {
				t.Fatalf("step %d: Remove = %v, reference %v", step, got, want)
			}
		case op == 5 && a < 8: // flush, rarely
			c.Flush()
			ref = newRefClassifier()
			flushed = true
		default: // lookup
			key := opKey(a ^ b)
			wantR, wantProbes := ref.lookup(key)
			gotR, gotProbes := lookup(c, key)
			if gotR != wantR || gotProbes != wantProbes {
				t.Fatalf("step %d: LookupKey = (%#x, %d), reference (%#x, %d)", step, gotR, gotProbes, wantR, wantProbes)
			}
			if gotR != 0 && c.Get(gotR).Hits != ref.entryHits[gotR] {
				t.Fatalf("step %d: entry hits = %d, reference %d", step, c.Get(gotR).Hits, ref.entryHits[gotR])
			}
		}
		checkAgainst(t, c, ref, handles)
		for _, st := range c.subtables {
			cov.maxSlots = max(cov.maxSlots, len(st.slots))
		}
	}
	return cov
}

func randomOps(seed int64, n int) []byte {
	ops := make([]byte, 3*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestClassifierMatchesReference is the differential test: seeded random op
// streams, identical behaviour to the map-based reference at every step, and
// no stale ref ever resolving (Get, Live or Remove) although removed records,
// their positions and dropped subtables' byIdx slots are recycled,
// and a flushed classifier is reused.
func TestClassifierMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cov := runOps(t, randomOps(seed, 6000))
		if cov.maxSlots <= minSlots || cov.reused == 0 || cov.flushedReuse == 0 {
			t.Fatalf("seed %d: coverage %+v: want growth past %d slots, a reused byIdx slot and reuse after a flush",
				seed, cov, minSlots)
		}
	}
}

func FuzzClassifierOps(f *testing.F) {
	f.Add(randomOps(1, 64))
	f.Add(randomOps(2, 512))
	// Insert under all four masks, remove everything in insertion order.
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 3, 0, 0, 3, 0, 1, 3, 0, 2, 3, 0, 3, 7, 1, 0})
	// Install, remove, re-install the same masked key (into the same record),
	// remove the stale ref.
	f.Add([]byte{0, 9, 3, 3, 0, 0, 0, 9, 3, 3, 0, 0, 6, 9, 0, 5, 0, 0})
	// Install under the first mask, remove it (its subtable drops), install
	// under the zero mask into the same byIdx slot and position, remove the
	// stale ref, look up.
	f.Add([]byte{0, 9, 0, 3, 0, 0, 0, 9, 4, 3, 0, 0, 6, 1, 2})
	// Install under MaskAll, flush, install again, look up.
	f.Add([]byte{0, 9, 3, 5, 0, 0, 0, 9, 3, 6, 9, 0})
	// Install under the first mask, flush, install the same key under the
	// same mask (same byIdx slot, same position), remove the stale ref,
	// look up, remove the fresh one.
	f.Add([]byte{0, 9, 0, 5, 0, 0, 0, 9, 0, 3, 0, 0, 6, 9, 0, 3, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) { runOps(t, ops) })
}

// srcMasks are masks that all cover the IPv4 source, so benchKey(i) is its
// own megaflow under each of them.
var srcMasks = []flow.Mask{
	flow.NewMaskBuilder().InPort().IP4Src(32).Build(),
	flow.NewMaskBuilder().EthType().IP4Src(32).TPSrc().Build(),
	flow.NewMaskBuilder().IP4Src(32).IPProto().Build(),
	flow.NewMaskBuilder().IP4Src(32).IP4Dst(32).TPDst().Build(),
}

// wrapKeys returns keys under mask whose home slots in a minSlots-wide
// subtable are the given ones, in order.
func wrapKeys(t *testing.T, st *subtable, homes []uint32) []flow.Key {
	keys := make([]flow.Key, 0, len(homes))
	src := uint32(0)
	for _, home := range homes {
		for ; ; src++ {
			k := keyFor(hdr.IP4(src), 80)
			if st.hash(&k)&(minSlots-1) == home {
				keys = append(keys, k)
				src++
				break
			}
			if src > 1<<20 {
				t.Fatal("no key found for home slot")
			}
		}
	}
	return keys
}

// TestBackwardShiftAcrossWrap builds a probe run that crosses the end of the
// slot array (homes 6, 7, 7, 7, 0 occupy slots 6, 7, 0, 1, 2) and deletes
// from it in every position: the entries behind the hole must be pulled back
// across the wrap, except the one already at its home.
func TestBackwardShiftAcrossWrap(t *testing.T) {
	mask := flow.NewMaskBuilder().EthType().IP4Src(32).Build()
	homes := []uint32{6, 7, 7, 7, 0}
	for victim := range homes {
		c := New(0)
		keys := wrapKeys(t, New(0).newSubtable(&mask), homes)
		entries := make([]Ref, len(keys))
		for i, k := range keys {
			entries[i] = c.Insert(k, mask, act(i))
		}
		st := c.byMask[mask]
		if len(st.slots) != minSlots || st.slots[2].pos != entries[4].pos() {
			t.Fatalf("setup: run does not wrap as intended")
		}
		if !c.Remove(entries[victim]) {
			t.Fatalf("victim %d: remove failed", victim)
		}
		checkSubtable(t, c, st)
		for i, k := range keys {
			got, _ := lookup(c, k)
			if i == victim && got != 0 {
				t.Fatalf("victim %d still found", victim)
			}
			if i != victim && got != entries[i] {
				t.Fatalf("victim %d: entry %d lost", victim, i)
			}
		}
	}
}

// TestRemoveStalePointerAfterReinstall: removing an entry twice fails the
// second time even when its masked key has been installed again since, into
// the very record it had, and the new entry stays in place.
func TestRemoveStalePointerAfterReinstall(t *testing.T) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	k := keyFor(hdr.MakeIP4(1, 1, 1, 1), 80)
	old := c.Insert(k, mask, act(1))
	c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 81), mask, act(1)) // keeps the subtable
	c.Remove(old)
	fresh := c.Insert(k, mask, act(2))
	if fresh == old || uint32(fresh) != uint32(old) || !c.Live(fresh) {
		t.Fatal("re-install must recycle the position under a new stamp, never resurrect the old ref")
	}
	if c.Remove(old) {
		t.Fatal("stale ref removed the re-installed entry")
	}
	if got, _ := lookup(c, k); got != fresh || !c.Live(fresh) || c.Len() != 2 || tag(c, fresh) != 2 {
		t.Fatalf("re-installed entry disturbed: got %#x", got)
	}
}

// TestStaleRefAcrossStampWrap starts the install counter four short of
// 2^32: the stamps run to 2^32-1 and wrap to 1, never 0, and the refs
// minted before the wrap stay stale after their positions, their byIdx slot
// and a Flush are reused by megaflows stamped after it.
func TestStaleRefAcrossStampWrap(t *testing.T) {
	c := New(0)
	c.stamp = 1<<32 - 5
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	var old []Ref
	for i := range 4 {
		old = append(old, c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), uint16(i)), mask, act(i)))
		if got, want := uint32(old[i]>>32), uint32(1<<32-4+i); got != want {
			t.Fatalf("install %d: stamp %#x, want %#x", i, got, want)
		}
	}
	for _, r := range old {
		c.Remove(r)
	}
	// The subtable dropped with its last megaflow: the next mask takes its
	// byIdx slot and positions 1 to 4 again, under stamps 1 to 4.
	other := flow.NewMaskBuilder().EthType().IP4Src(32).Build()
	var fresh []Ref
	for i := range 4 {
		fresh = append(fresh, c.Insert(keyFor(hdr.MakeIP4(2, 2, 2, byte(i)), 80), other, act(10+i)))
		if got, want := uint32(fresh[i]>>32), uint32(1+i); got != want {
			t.Fatalf("install %d after the wrap: stamp %d, want %d", i, got, want)
		}
		if uint32(fresh[i]) != uint32(old[i]) {
			t.Fatalf("install %d after the wrap: location %#x, want the reused %#x", i, uint32(fresh[i]), uint32(old[i]))
		}
	}
	stale := func(when string) {
		t.Helper()
		for i, r := range old {
			if c.Get(r) != nil || c.Live(r) || c.Remove(r) {
				t.Fatalf("%s: ref %d minted before the wrap resolves", when, i)
			}
		}
	}
	stale("after reuse")
	c.Flush()
	if c.stamp != 4 {
		t.Fatalf("Flush reset the stamp to %d", c.stamp)
	}
	for i := range 4 {
		if r := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), uint16(i)), mask, act(20+i)); uint32(r) != uint32(old[i]) || c.Live(fresh[i]) {
			t.Fatalf("install %d after Flush: ref %#x", i, r)
		}
	}
	stale("after Flush")
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
}

// TestLocationLimitsPanic: a ref has room for 1<<subBits subtable indices
// and 1<<posBits positions, and going past either panics instead of minting
// a ref that names another megaflow. The limits are reached by setting the
// counts, not by installing millions.
func TestLocationLimitsPanic(t *testing.T) {
	mustPanic := func(want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if got := recover(); got != want {
				t.Fatalf("panic %v, want %q", got, want)
			}
		}()
		f()
	}
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	c := New(0)
	c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 0), mask, act(1))
	// Skip to the last chunk of positions: the ones between are never
	// handed out, so their chunks need not exist.
	st, last := c.byMask[mask], uint32(1<<posBits/chunkSize-1)
	st.hdrs = append(st.hdrs, make([][]Entry, last-1)...)
	st.keys = append(st.keys, make([][]uint64, last-1)...)
	st.used = last * chunkSize
	var r Ref
	for i := range chunkSize {
		r = c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), uint16(1+i)), mask, act(1))
	}
	if r.pos() != 1<<posBits-1 || c.MaskedKey(r) != keyFor(hdr.MakeIP4(1, 1, 1, 1), chunkSize).Apply(mask) {
		t.Fatalf("last install at position %d, want %d", r.pos(), 1<<posBits-1)
	}
	mustPanic("dpcls: 2^22 megaflows under one mask", func() {
		c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 2*chunkSize), mask, act(1))
	})

	c = New(0)
	for i := range 1<<subBits - 1 {
		c.byIdx = append(c.byIdx, &subtable{idx: uint32(i)})
	}
	c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(1)) // the last index
	if st := c.byMask[mask]; st.idx != 1<<subBits-1 {
		t.Fatalf("last mask at byIdx %d", st.idx)
	}
	mustPanic("dpcls: 1024 megaflow masks", func() {
		c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), flow.MaskAll(), act(1))
	})
}

// TestBasisSeedsPlacement: the constructor's hash basis really seeds the
// slot hash — two bases place the same megaflows in different slots — and
// changes nothing a caller can see.
func TestBasisSeedsPlacement(t *testing.T) {
	a, b := New(0*0x79b9+7), New(1*0x79b9+7)
	keys := make([]flow.Key, 96)
	for i := range keys {
		keys[i] = benchKey(i)
		a.Insert(keys[i], srcMasks[i%len(srcMasks)], act(i))
		b.Insert(keys[i], srcMasks[i%len(srcMasks)], act(i))
	}
	placement := func(c *Classifier) map[flow.Key]int {
		at := map[flow.Key]int{}
		for _, st := range c.subtables {
			for i, s := range st.slots {
				if s.pos != 0 {
					at[c.MaskedKey(makeRef(st.hdr(s.pos).stamp, st.idx, s.pos))] = i
				}
			}
		}
		return at
	}
	pa, pb := placement(a), placement(b)
	moved := 0
	for k, i := range pa {
		if pb[k] != i {
			moved++
		}
	}
	if len(pa) != len(pb) || moved < len(pa)/2 {
		t.Fatalf("%d of %d megaflows placed differently under another basis", moved, len(pa))
	}
	for _, k := range append(keys, keyFor(hdr.MakeIP4(9, 9, 9, 9), 9)) {
		ea, na := lookup(a, k)
		eb, nb := lookup(b, k)
		if na != nb || (ea == 0) != (eb == 0) || (ea != 0 && (tag(a, ea) != tag(b, eb) || a.MaskedKey(ea) != b.MaskedKey(eb))) {
			t.Fatalf("lookups differ across bases: (%#x, %d) vs (%#x, %d)", ea, na, eb, nb)
		}
	}
}

// TestDpclsLookupZeroAlloc pins lookups at exactly zero allocations across
// several usage-based resorts. The count is taken over one long run: an
// average over many short ones truncates a per-resort allocation to zero.
func TestDpclsLookupZeroAlloc(t *testing.T) {
	c := New(0)
	keys := make([]flow.Key, 64)
	for i := range keys {
		keys[i] = benchKey(i)
		c.Insert(keys[i], srcMasks[i%len(srcMasks)], act(1))
	}
	miss := keyFor(hdr.MakeIP4(9, 9, 9, 9), 9)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2*resortInterval+7; i++ {
			if e, _, _ := c.LookupKey(&keys[i%len(keys)]); e == nil {
				t.Fatal("hit path missed")
			}
			if e, _, _ := c.LookupKey(&miss); e != nil {
				t.Fatal("miss path hit")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations over %d lookups, want 0", allocs, 2*(2*resortInterval+7))
	}
}

// TestMegaflowTableIsNoscan: 100k megaflows add almost nothing the collector
// must scan. Headers, key words, slots and the action table's indices hold
// no pointer; what is left is one slice header per chunk of headers and of
// key words, and the subtables.
func TestMegaflowTableIsNoscan(t *testing.T) {
	const n = 100_000
	sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	scannable := func() uint64 {
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	before := scannable()
	c, _, _ := churnShape(n)
	after := scannable()
	if c.Len() != n {
		t.Fatalf("len = %d, want %d", c.Len(), n)
	}
	grew := int64(after) - int64(before)
	t.Logf("%d megaflows add %d scannable heap bytes", n, grew)
	if grew >= 64<<10 {
		t.Fatalf("%d megaflows add %d scannable heap bytes, want < 64 KB", n, grew)
	}
	runtime.KeepAlive(c)
}
