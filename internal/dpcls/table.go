package dpcls

import "ovsxdp/internal/flow"

// slot is one cell of a subtable: the entry and the 32-bit hash of its
// masked key. The hash is a tag — a probe compares it before touching the
// entry — and what growth and deletion re-place the entry by, so neither
// rehashes a key. A nil entry marks a free slot.
type slot struct {
	hash uint32
	e    *Entry
}

// maskWord is one non-zero word of a subtable's mask.
type maskWord struct {
	idx  uint8
	bits uint64
}

// subtable holds all megaflows sharing one mask in a flat, power-of-two
// sized, linearly probed table kept at most 3/4 full. Only the mask's
// non-zero words take part in hashing and comparison: a key outside them is
// zero on both sides by construction.
//
// Deletion shifts the following run back over the hole instead of leaving a
// tombstone. Flow churn installs and evicts megaflows at the same steady
// rate, and tombstones would lengthen every probe run until a rebuild.
type subtable struct {
	// mask is allocated on its own: every entry points at it, and a dead
	// entry a cache still holds must not keep the slot array alive.
	mask  *flow.Mask
	words []maskWord
	seed  uint64
	slots []slot
	n     int
	hits  uint64
}

// minSlots is the size a subtable starts at.
const minSlots = 8

func newSubtable(mask *flow.Mask, basis uint32) *subtable {
	m := *mask
	st := &subtable{
		mask:  &m,
		seed:  uint64(basis) + 0x9e3779b97f4a7c15,
		slots: make([]slot, minSlots),
	}
	for i, w := range mask {
		if w != 0 {
			st.words = append(st.words, maskWord{idx: uint8(i), bits: w})
		}
	}
	return st
}

// hash mixes the masked words of key (the xorshift-multiply mixer of
// flow.Key.Hash, over fewer words). key may be a packet's full key or an
// entry's already-masked one; both hash alike.
func (st *subtable) hash(key *flow.Key) uint32 {
	h := st.seed
	for _, w := range st.words {
		h ^= key[w.idx] & w.bits
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// matches reports whether e, an entry of this subtable, covers key.
func (st *subtable) matches(e *Entry, key *flow.Key) bool {
	for _, w := range st.words {
		if key[w.idx]&w.bits != e.MaskedKey[w.idx] {
			return false
		}
	}
	return true
}

// find returns the entry covering key, whose subtable hash is h, or nil.
func (st *subtable) find(key *flow.Key, h uint32) *Entry {
	m := uint32(len(st.slots) - 1)
	for i := h & m; ; i = (i + 1) & m {
		s := &st.slots[i]
		if s.e == nil {
			return nil
		}
		if s.hash == h && st.matches(s.e, key) {
			return s.e
		}
	}
}

// insert places e, which find did not locate, growing the table first when
// the new entry would take it past 3/4 full.
func (st *subtable) insert(h uint32, e *Entry) {
	if (st.n+1)*4 > len(st.slots)*3 {
		old := st.slots
		st.slots = make([]slot, 2*len(old))
		for _, s := range old {
			if s.e != nil {
				st.place(s)
			}
		}
	}
	st.place(slot{hash: h, e: e})
	st.n++
}

// place writes s into the first free slot of its probe run.
func (st *subtable) place(s slot) {
	m := uint32(len(st.slots) - 1)
	i := s.hash & m
	for st.slots[i].e != nil {
		i = (i + 1) & m
	}
	st.slots[i] = s
}

// remove deletes e by pointer identity and reports whether it was present.
func (st *subtable) remove(e *Entry) bool {
	h := st.hash(&e.MaskedKey)
	m := uint32(len(st.slots) - 1)
	i := h & m
	for ; st.slots[i].e != e; i = (i + 1) & m {
		if st.slots[i].e == nil {
			return false
		}
	}
	// Backward shift: walk the run after the hole and pull back every entry
	// whose home slot does not lie (cyclically) after the hole, so each
	// stays reachable from its home without crossing a free slot.
	for j := (i + 1) & m; st.slots[j].e != nil; j = (j + 1) & m {
		if home := st.slots[j].hash & m; (j-home)&m >= (j-i)&m {
			st.slots[i] = st.slots[j]
			i = j
		}
	}
	st.slots[i] = slot{}
	st.n--
	return true
}
