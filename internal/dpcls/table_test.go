package dpcls

import (
	"math/rand"
	"sort"
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet/hdr"
)

// refClassifier is the trivially correct reference the flat table is checked
// against: the classifier as it was before, one Go map per mask keyed by the
// masked copy of the key, with the same probe order, hit bookkeeping and
// resort cadence. It stores the entries the real classifier hands out, so
// the two can be compared by pointer identity.
type refSubtable struct {
	mask    flow.Mask
	entries map[flow.Key]*Entry
	hits    uint64
}

type refClassifier struct {
	subtables       []*refSubtable
	resort          int
	lookups, probes uint64
	entryHits       map[*Entry]uint64
}

func newRefClassifier() *refClassifier {
	return &refClassifier{resort: resortInterval, entryHits: map[*Entry]uint64{}}
}

func (r *refClassifier) subtable(mask flow.Mask) (int, *refSubtable) {
	for i, st := range r.subtables {
		if st.mask == mask {
			return i, st
		}
	}
	return -1, nil
}

func (r *refClassifier) lookup(key flow.Key) (found *Entry, probes int) {
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

func (r *refClassifier) find(key flow.Key, mask flow.Mask) *Entry {
	if _, st := r.subtable(mask); st != nil {
		return st.entries[key.Apply(mask)]
	}
	return nil
}

func (r *refClassifier) add(e *Entry) {
	_, st := r.subtable(e.Mask())
	if st == nil {
		st = &refSubtable{mask: e.Mask(), entries: map[flow.Key]*Entry{}}
		r.subtables = append(r.subtables, st)
	}
	st.entries[e.MaskedKey] = e
}

func (r *refClassifier) remove(e *Entry) bool {
	i, st := r.subtable(e.Mask())
	if st == nil || st.entries[e.MaskedKey] != e {
		return false
	}
	delete(st.entries, e.MaskedKey)
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
// order, which the reference must reproduce exactly. The last one covers
// every word, so its subtable sees the whole key space and grows.
var opMasks = []flow.Mask{
	flow.NewMaskBuilder().InPort().IP4Src(32).Build(),
	flow.NewMaskBuilder().EthType().TPDst().Build(),
	flow.NewMaskBuilder().IP4Dst(24).IPProto().Build(),
	flow.MaskAll(),
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
// the entries' own, every entry is reachable from its home slot without
// crossing a free one, the count is right and the load is at most 3/4.
func checkSubtable(t testing.TB, st *subtable) {
	t.Helper()
	if n := len(st.slots); n < minSlots || n&(n-1) != 0 {
		t.Fatalf("slot count %d is not a power of two >= %d", n, minSlots)
	}
	m := uint32(len(st.slots) - 1)
	occupied := 0
	for i, s := range st.slots {
		if s.e == nil {
			continue
		}
		occupied++
		if s.e.Mask() != *st.mask || s.hash != st.hash(&s.e.MaskedKey) {
			t.Fatalf("slot %d: entry %v stored under the wrong mask or hash", i, s.e)
		}
		for j := s.hash & m; j != uint32(i); j = (j + 1) & m {
			if st.slots[j].e == nil {
				t.Fatalf("slot %d: free slot %d between home %d and entry", i, j, s.hash&m)
			}
		}
	}
	if occupied != st.n || st.n == 0 || st.n*4 > len(st.slots)*3 {
		t.Fatalf("subtable holds %d entries, counts %d, in %d slots", occupied, st.n, len(st.slots))
	}
}

// checkAgainst requires the classifier and the reference to agree on
// everything observable, and the tables to be well formed.
func checkAgainst(t testing.TB, c *Classifier, ref *refClassifier) {
	t.Helper()
	if c.Len() != ref.len() || c.Subtables() != len(ref.subtables) || len(c.byMask) != len(ref.subtables) {
		t.Fatalf("len=%d subtables=%d index=%d, reference len=%d subtables=%d",
			c.Len(), c.Subtables(), len(c.byMask), ref.len(), len(ref.subtables))
	}
	if c.Lookups != ref.lookups || c.SubtableProbes != ref.probes {
		t.Fatalf("lookups=%d probes=%d, reference %d/%d", c.Lookups, c.SubtableProbes, ref.lookups, ref.probes)
	}
	for i, st := range c.subtables {
		if *st.mask != ref.subtables[i].mask || c.byMask[*st.mask] != st {
			t.Fatalf("subtable %d out of order or missing from the mask index", i)
		}
		checkSubtable(t, st)
	}
	entries := c.Entries()
	if len(entries) != ref.len() {
		t.Fatalf("dump has %d entries, reference %d", len(entries), ref.len())
	}
	for _, e := range entries {
		if e.Dead() || ref.find(e.MaskedKey, e.Mask()) != e {
			t.Fatalf("dumped entry %v is dead or not the reference's", e)
		}
	}
}

// runOps replays an op stream (three bytes per op: opcode, a, b) against a
// classifier and the reference, comparing after every step. It returns the
// largest slot array seen, so callers can tell growth happened.
func runOps(t testing.TB, ops []byte) (maxSlots int) {
	c, ref := New(0x79b9+7), newRefClassifier()
	var handles []*Entry // every entry ever handed out, live or stale
	for step := 0; step+2 < len(ops); step += 3 {
		op, a, b := ops[step]%8, ops[step+1], ops[step+2]
		switch {
		case op <= 2: // insert, or replace in place
			key, mask := opKey(a), opMasks[int(b)%len(opMasks)]
			prev := ref.find(key, mask)
			e := c.Insert(key, mask, act(step))
			switch {
			case prev != nil && e != prev:
				t.Fatalf("step %d: replacement allocated a new entry", step)
			case prev == nil:
				if e.Dead() || e.Mask() != mask || e.MaskedKey != key.Apply(mask) {
					t.Fatalf("step %d: bad fresh entry %v", step, e)
				}
				ref.add(e)
				handles = append(handles, e)
			}
			if tag(e) != step {
				t.Fatalf("step %d: actions = %v", step, e.Actions)
			}
		case op <= 4 && len(handles) > 0: // remove a live entry or a stale pointer
			e := handles[(int(a)<<8|int(b))%len(handles)]
			want := ref.remove(e)
			if got := c.Remove(e); got != want {
				t.Fatalf("step %d: Remove = %v, reference %v", step, got, want)
			}
			if !e.Dead() && ref.find(e.MaskedKey, e.Mask()) != e {
				t.Fatalf("step %d: uninstalled entry not marked dead", step)
			}
		case op == 5 && a < 8: // flush, rarely
			live := c.Entries()
			c.Flush()
			ref = newRefClassifier()
			for _, e := range live {
				if !e.Dead() {
					t.Fatalf("step %d: flushed entry not marked dead", step)
				}
			}
		default: // lookup
			key := opKey(a ^ b)
			wantE, wantProbes := ref.lookup(key)
			gotE, gotProbes := c.Lookup(key)
			if gotE != wantE || gotProbes != wantProbes {
				t.Fatalf("step %d: Lookup = (%v, %d), reference (%v, %d)", step, gotE, gotProbes, wantE, wantProbes)
			}
			if gotE != nil && gotE.Hits != ref.entryHits[gotE] {
				t.Fatalf("step %d: entry hits = %d, reference %d", step, gotE.Hits, ref.entryHits[gotE])
			}
		}
		checkAgainst(t, c, ref)
		for _, st := range c.subtables {
			maxSlots = max(maxSlots, len(st.slots))
		}
	}
	return maxSlots
}

func randomOps(seed int64, n int) []byte {
	ops := make([]byte, 3*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestClassifierMatchesReference is the differential test: seeded random op
// streams, identical behaviour to the map-based reference at every step.
func TestClassifierMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		if got := runOps(t, randomOps(seed, 6000)); got <= minSlots {
			t.Fatalf("seed %d: no subtable ever grew (max %d slots)", seed, got)
		}
	}
}

func FuzzClassifierOps(f *testing.F) {
	f.Add(randomOps(1, 64))
	f.Add(randomOps(2, 512))
	// Insert under all four masks, remove everything in insertion order.
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 3, 0, 0, 3, 0, 1, 3, 0, 2, 3, 0, 3, 7, 1, 0})
	// Install, remove, re-install the same masked key, remove the stale pointer.
	f.Add([]byte{0, 9, 3, 3, 0, 0, 0, 9, 3, 3, 0, 0, 6, 9, 0, 5, 0, 0})
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
		keys := wrapKeys(t, newSubtable(&mask, 0), homes)
		entries := make([]*Entry, len(keys))
		for i, k := range keys {
			entries[i] = c.Insert(k, mask, act(i))
		}
		st := c.byMask[mask]
		if len(st.slots) != minSlots || st.slots[2].e != entries[4] {
			t.Fatalf("setup: run does not wrap as intended")
		}
		if !c.Remove(entries[victim]) {
			t.Fatalf("victim %d: remove failed", victim)
		}
		checkSubtable(t, st)
		for i, k := range keys {
			got, _ := c.Lookup(k)
			if i == victim && got != nil {
				t.Fatalf("victim %d still found", victim)
			}
			if i != victim && got != entries[i] {
				t.Fatalf("victim %d: entry %d lost", victim, i)
			}
		}
	}
}

// TestRemoveStalePointerAfterReinstall: removing an entry twice fails the
// second time even when its masked key has been installed again since, and
// the new entry stays in place.
func TestRemoveStalePointerAfterReinstall(t *testing.T) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	k := keyFor(hdr.MakeIP4(1, 1, 1, 1), 80)
	old := c.Insert(k, mask, act(1))
	c.Remove(old)
	fresh := c.Insert(k, mask, act(2))
	if fresh == old || fresh.Dead() {
		t.Fatal("re-install must allocate a live entry, never resurrect the dead one")
	}
	if c.Remove(old) {
		t.Fatal("stale pointer removed the re-installed entry")
	}
	if got, _ := c.Lookup(k); got != fresh || fresh.Dead() || c.Len() != 1 {
		t.Fatalf("re-installed entry disturbed: got %v", got)
	}
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
				if s.e != nil {
					at[s.e.MaskedKey] = i
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
		ea, na := a.Lookup(k)
		eb, nb := b.Lookup(k)
		if na != nb || (ea == nil) != (eb == nil) || (ea != nil && (tag(ea) != tag(eb) || ea.MaskedKey != eb.MaskedKey)) {
			t.Fatalf("lookups differ across bases: (%v, %d) vs (%v, %d)", ea, na, eb, nb)
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
			if e, _ := c.LookupKey(&keys[i%len(keys)]); e == nil {
				t.Fatal("hit path missed")
			}
			if e, _ := c.LookupKey(&miss); e != nil {
				t.Fatal("miss path hit")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations over %d lookups, want 0", allocs, 2*(2*resortInterval+7))
	}
}
