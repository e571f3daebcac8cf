package dpcls

import "ovsxdp/internal/flow"

// slot is one cell of a subtable, 8 bytes: the position of a record and the
// 32-bit hash of its masked key. The hash is a tag — a probe compares it
// before touching the record — and what growth and deletion re-place the
// record by, so neither rehashes a key. Position 0 marks a free slot.
type slot struct {
	hash uint32
	pos  uint32
}

// maskWord is one non-zero word of a subtable's mask.
type maskWord struct {
	idx  uint8
	bits uint64
}

// subtable holds all megaflows sharing one mask: their records, by
// position, and a flat, power-of-two sized, linearly probed table of slots
// naming those positions, kept at most 3/4 full. Only the mask's non-zero
// words take part in hashing and comparison, and only they are stored: a
// key outside them is zero on both sides by construction.
//
// Deletion shifts the following run back over the hole instead of leaving a
// tombstone. Flow churn installs and evicts megaflows at the same steady
// rate, and tombstones would lengthen every probe run until a rebuild.
type subtable struct {
	mask  flow.Mask
	words []maskWord
	seed  uint64
	slots []slot
	n     int
	hits  uint64
	idx   uint32 // in Classifier.byIdx, what its megaflows' refs carry

	// hdrs and keys are the records, parallel arrays indexed by position:
	// a header, and len(words) masked key words per position in the
	// pointer-free key arena. A slot's position reaches both directly, so
	// neither load waits on the other. used counts the positions handed
	// out, position 0 included (it never is: slot 0 means free), and free
	// heads the list of released positions, linked through actions.
	hdrs [][]Entry
	keys [][]uint64
	used uint32
	free uint32
}

// minSlots is the size a subtable starts at.
const minSlots = 8

// hdr returns the header at position p.
func (st *subtable) hdr(p uint32) *Entry { return &st.hdrs[p>>chunkBits][p&(chunkSize-1)] }

// row returns the masked key words at position p.
func (st *subtable) row(p uint32) []uint64 {
	w := len(st.words)
	o := int(p&(chunkSize-1)) * w
	return st.keys[p>>chunkBits][o : o+w : o+w]
}

// hash mixes the masked words of key (the xorshift-multiply mixer of
// flow.Key.Hash, over fewer words); hashRow mixes a record's stored words
// the same way, so a megaflow hashes alike from its key and its record.
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

func (st *subtable) hashRow(row []uint64) uint32 {
	h := st.seed
	for _, v := range row {
		h ^= v
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// matches reports whether the record at position p covers key.
func (st *subtable) matches(p uint32, key *flow.Key) bool {
	row := st.row(p)
	for j, w := range st.words {
		if key[w.idx]&w.bits != row[j] {
			return false
		}
	}
	return true
}

// find returns the position of the record covering key, whose subtable
// hash is h, or 0.
func (st *subtable) find(key *flow.Key, h uint32) uint32 {
	m := uint32(len(st.slots) - 1)
	for i := h & m; ; i = (i + 1) & m {
		s := st.slots[i]
		if s.pos == 0 || s.hash == h && st.matches(s.pos, key) {
			return s.pos
		}
	}
}

// alloc takes a position off the free list, or the next one never handed
// out, growing the arrays; the caller overwrites its header.
func (st *subtable) alloc() uint32 {
	if p := st.free; p != 0 {
		st.free = st.hdr(p).actions
		return p
	}
	p := max(st.used, 1)
	if p == 1<<posBits {
		panic("dpcls: 2^22 megaflows under one mask")
	}
	st.hdrs = growRows(st.hdrs, p, 1)
	st.keys = growRows(st.keys, p, len(st.words))
	st.used = p + 1
	return p
}

// growRows makes room in a, an array of rows of width elements, for row i,
// the next one never handed out. Rows come in chunks of chunkSize that
// never move; the first chunk starts at firstChunk rows and doubles, so a
// table of a few records stays small, and its rows move while it grows.
func growRows[T any](a [][]T, i uint32, width int) [][]T {
	switch {
	case len(a) == 0:
		a = append(a, make([]T, firstChunk*width))
	case i < chunkSize && i >= firstChunk && i&(i-1) == 0:
		a[0] = append(make([]T, 0, 2*int(i)*width), a[0]...)[:2*int(i)*width]
	case i&(chunkSize-1) == 0:
		a = append(a, make([]T, chunkSize*width))
	}
	return a
}

// insert places the record at position p, which find did not locate,
// growing the table first when the new entry would take it past 3/4 full.
func (st *subtable) insert(h, p uint32) {
	if (st.n+1)*4 > len(st.slots)*3 {
		old := st.slots
		st.slots = make([]slot, 2*len(old))
		for _, s := range old {
			if s.pos != 0 {
				st.place(s)
			}
		}
	}
	st.place(slot{hash: h, pos: p})
	st.n++
}

// place writes s into the first free slot of its probe run.
func (st *subtable) place(s slot) {
	m := uint32(len(st.slots) - 1)
	i := s.hash & m
	for st.slots[i].pos != 0 {
		i = (i + 1) & m
	}
	st.slots[i] = s
}

// remove deletes the slot of the record at position p, installed under
// hash h.
func (st *subtable) remove(h, p uint32) {
	m := uint32(len(st.slots) - 1)
	i := h & m
	for st.slots[i].pos != p {
		i = (i + 1) & m
	}
	// Backward shift: walk the run after the hole and pull back every entry
	// whose home slot does not lie (cyclically) after the hole, so each
	// stays reachable from its home without crossing a free slot.
	for j := (i + 1) & m; st.slots[j].pos != 0; j = (j + 1) & m {
		if home := st.slots[j].hash & m; (j-home)&m >= (j-i)&m {
			st.slots[i] = st.slots[j]
			i = j
		}
	}
	st.slots[i] = slot{}
	st.n--
}
