package ebpf

import (
	"encoding/binary"
	"fmt"
)

// MapType discriminates the map implementations, mirroring the subset of
// bpf_map_type the OVS XDP programs use.
type MapType int

// Map types.
const (
	MapTypeHash MapType = iota
	MapTypeArray
	MapTypeDevMap // redirect targets: index -> ifindex
	MapTypeXskMap // redirect targets: queue -> AF_XDP socket
)

// String names the map type.
func (t MapType) String() string {
	switch t {
	case MapTypeHash:
		return "hash"
	case MapTypeArray:
		return "array"
	case MapTypeDevMap:
		return "devmap"
	case MapTypeXskMap:
		return "xskmap"
	default:
		return fmt.Sprintf("maptype(%d)", int(t))
	}
}

// Map is the interface all map kinds implement. Keys and values are
// fixed-size byte strings, as in the kernel.
type Map interface {
	Type() MapType
	KeySize() int
	ValueSize() int
	MaxEntries() int
	// Lookup returns the live value slice (writable in place) or nil.
	Lookup(key []byte) []byte
	// Update inserts or replaces the value for key.
	Update(key, value []byte) error
	// Delete removes key; deleting a missing key is an error, as in the
	// kernel.
	Delete(key []byte) error
	// Len reports the number of entries present.
	Len() int
}

// HashMap is MapTypeHash.
type HashMap struct {
	keySize, valueSize, maxEntries int
	m                              map[string][]byte
}

// NewHashMap builds a hash map with the given key/value sizes and capacity.
func NewHashMap(keySize, valueSize, maxEntries int) *HashMap {
	return &HashMap{keySize: keySize, valueSize: valueSize, maxEntries: maxEntries,
		m: make(map[string][]byte)}
}

// Type implements Map.
func (h *HashMap) Type() MapType { return MapTypeHash }

// KeySize implements Map.
func (h *HashMap) KeySize() int { return h.keySize }

// ValueSize implements Map.
func (h *HashMap) ValueSize() int { return h.valueSize }

// MaxEntries implements Map.
func (h *HashMap) MaxEntries() int { return h.maxEntries }

// Len implements Map.
func (h *HashMap) Len() int { return len(h.m) }

// Lookup implements Map.
func (h *HashMap) Lookup(key []byte) []byte {
	if len(key) != h.keySize {
		return nil
	}
	return h.m[string(key)]
}

// Update implements Map.
func (h *HashMap) Update(key, value []byte) error {
	if len(key) != h.keySize {
		return fmt.Errorf("ebpf: hash update: key size %d, want %d", len(key), h.keySize)
	}
	if len(value) != h.valueSize {
		return fmt.Errorf("ebpf: hash update: value size %d, want %d", len(value), h.valueSize)
	}
	if _, ok := h.m[string(key)]; !ok && len(h.m) >= h.maxEntries {
		return fmt.Errorf("ebpf: hash map full (%d entries)", h.maxEntries)
	}
	h.m[string(key)] = append([]byte(nil), value...)
	return nil
}

// Delete implements Map.
func (h *HashMap) Delete(key []byte) error {
	if _, ok := h.m[string(key)]; !ok {
		return fmt.Errorf("ebpf: hash delete: no such key")
	}
	delete(h.m, string(key))
	return nil
}

// ArrayMap is MapTypeArray: uint32 keys indexing preallocated values.
type ArrayMap struct {
	valueSize int
	values    [][]byte
}

// NewArrayMap builds an array map of maxEntries values.
func NewArrayMap(valueSize, maxEntries int) *ArrayMap {
	vals := make([][]byte, maxEntries)
	for i := range vals {
		vals[i] = make([]byte, valueSize)
	}
	return &ArrayMap{valueSize: valueSize, values: vals}
}

// Type implements Map.
func (a *ArrayMap) Type() MapType { return MapTypeArray }

// KeySize implements Map: array keys are always 4 bytes.
func (a *ArrayMap) KeySize() int { return 4 }

// ValueSize implements Map.
func (a *ArrayMap) ValueSize() int { return a.valueSize }

// MaxEntries implements Map.
func (a *ArrayMap) MaxEntries() int { return len(a.values) }

// Len implements Map: arrays are always fully populated.
func (a *ArrayMap) Len() int { return len(a.values) }

func (a *ArrayMap) index(key []byte) (int, bool) {
	if len(key) != 4 {
		return 0, false
	}
	i := int(binary.LittleEndian.Uint32(key))
	if i >= len(a.values) {
		return 0, false
	}
	return i, true
}

// Lookup implements Map.
func (a *ArrayMap) Lookup(key []byte) []byte {
	i, ok := a.index(key)
	if !ok {
		return nil
	}
	return a.values[i]
}

// Update implements Map.
func (a *ArrayMap) Update(key, value []byte) error {
	i, ok := a.index(key)
	if !ok {
		return fmt.Errorf("ebpf: array update: bad index")
	}
	if len(value) != a.valueSize {
		return fmt.Errorf("ebpf: array update: value size %d, want %d", len(value), a.valueSize)
	}
	copy(a.values[i], value)
	return nil
}

// Delete implements Map: arrays do not support deletion, as in the kernel.
func (a *ArrayMap) Delete(key []byte) error {
	return fmt.Errorf("ebpf: array maps do not support delete")
}

// TargetMap is the shared implementation of DevMap and XskMap: an array of
// redirect targets. A zero slot is empty.
type TargetMap struct {
	typ MapType
	// vals holds each slot's target as its 4-byte little-endian map value,
	// so Lookup returns the live value without allocating, like the other
	// map kinds.
	vals    [][4]byte
	present []bool
}

// NewDevMap builds a device-redirect map.
func NewDevMap(maxEntries int) *TargetMap {
	return &TargetMap{typ: MapTypeDevMap, vals: make([][4]byte, maxEntries), present: make([]bool, maxEntries)}
}

// NewXskMap builds an AF_XDP socket redirect map.
func NewXskMap(maxEntries int) *TargetMap {
	return &TargetMap{typ: MapTypeXskMap, vals: make([][4]byte, maxEntries), present: make([]bool, maxEntries)}
}

// Type implements Map.
func (t *TargetMap) Type() MapType { return t.typ }

// KeySize implements Map.
func (t *TargetMap) KeySize() int { return 4 }

// ValueSize implements Map.
func (t *TargetMap) ValueSize() int { return 4 }

// MaxEntries implements Map.
func (t *TargetMap) MaxEntries() int { return len(t.vals) }

// Len implements Map.
func (t *TargetMap) Len() int {
	n := 0
	for _, p := range t.present {
		if p {
			n++
		}
	}
	return n
}

// Lookup implements Map.
func (t *TargetMap) Lookup(key []byte) []byte {
	if len(key) != 4 {
		return nil
	}
	i := int(binary.LittleEndian.Uint32(key))
	if i >= len(t.vals) || !t.present[i] {
		return nil
	}
	return t.vals[i][:]
}

// Update implements Map.
func (t *TargetMap) Update(key, value []byte) error {
	if len(key) != 4 || len(value) != 4 {
		return fmt.Errorf("ebpf: target map update: key/value must be 4 bytes")
	}
	i := int(binary.LittleEndian.Uint32(key))
	if i >= len(t.vals) {
		return fmt.Errorf("ebpf: target map update: index %d out of range", i)
	}
	copy(t.vals[i][:], value)
	t.present[i] = true
	return nil
}

// Delete implements Map.
func (t *TargetMap) Delete(key []byte) error {
	if len(key) != 4 {
		return fmt.Errorf("ebpf: target map delete: bad key")
	}
	i := int(binary.LittleEndian.Uint32(key))
	if i >= len(t.vals) || !t.present[i] {
		return fmt.Errorf("ebpf: target map delete: no such entry")
	}
	t.present[i] = false
	t.vals[i] = [4]byte{}
	return nil
}

// Target returns the redirect target at index, if set. The XDP runtime uses
// this on the redirect fast path.
func (t *TargetMap) Target(index uint32) (uint32, bool) {
	if int(index) >= len(t.vals) || !t.present[index] {
		return 0, false
	}
	return binary.LittleEndian.Uint32(t.vals[index][:]), true
}

// SetTarget is a convenience for Update with native integers.
func (t *TargetMap) SetTarget(index, target uint32) error {
	k := make([]byte, 4)
	v := make([]byte, 4)
	binary.LittleEndian.PutUint32(k, index)
	binary.LittleEndian.PutUint32(v, target)
	return t.Update(k, v)
}
