// Package packet provides the datapath's packet representation: the
// dp_packet analog from OVS, with the metadata fields Section 3.2 describes
// (input port, L3/L4 header offsets, the NIC-supplied RSS hash) plus the
// offload and conntrack state the pipeline threads through processing.
//
// It also implements the pre-allocated metadata pool of optimization O4:
// "we pre-allocated packet metadata in a contiguous array and pre-initialized
// their packet-independent fields."
package packet

import (
	"fmt"

	"ovsxdp/internal/packet/hdr"
)

// OffloadFlags describe hardware offload state attached to a packet, the
// checksum/TSO machinery of Sections 3.2 (O5) and 5.1.
type OffloadFlags uint8

// Offload flag bits.
const (
	// CsumVerified means the NIC (or a trusted internal hop) already
	// validated the L4 checksum; receive-side software checksumming can
	// be skipped.
	CsumVerified OffloadFlags = 1 << iota
	// CsumPartial means the L4 checksum has not been computed and must
	// be filled in by hardware at transmit (or software at the last
	// moment when the egress device lacks the offload).
	CsumPartial
	// TSO marks an oversized TCP segment that hardware (or the last
	// software hop) must segment to MSS-sized frames.
	TSO
)

// CtStateFlags is the conntrack state bitmap the datapath matches on
// (a subset of OVS's ct_state).
type CtStateFlags uint8

// Conntrack state bits.
const (
	CtTracked CtStateFlags = 1 << iota
	CtNew
	CtEstablished
	CtRelated
	CtReply
	CtInvalid
)

// String formats the state like OVS flow dumps (e.g. "trk,est").
func (s CtStateFlags) String() string {
	if s == 0 {
		return "-"
	}
	names := []struct {
		bit  CtStateFlags
		name string
	}{
		{CtTracked, "trk"}, {CtNew, "new"}, {CtEstablished, "est"},
		{CtRelated, "rel"}, {CtReply, "rpl"}, {CtInvalid, "inv"},
	}
	out := ""
	for _, n := range names {
		if s&n.bit != 0 {
			if out != "" {
				out += ","
			}
			out += n.name
		}
	}
	return out
}

// Metadata is the per-packet state OVS keeps in dp_packet plus the pkt
// metadata of the datapath (md). It is packet-independent-initializable:
// Reset restores the zero state without losing the buffer.
type Metadata struct {
	// InPort is the datapath port the packet arrived on.
	InPort uint32
	// RecircID is the recirculation context; 0 means the first pass.
	RecircID uint32
	// RSSHash is the 5-tuple hash, either supplied by NIC hardware or
	// computed in software (Section 5.5 notes XDP cannot yet access the
	// hardware hash).
	RSSHash uint32
	// HasRSSHash records whether RSSHash is valid.
	HasRSSHash bool
	// Offloads carries checksum/TSO state.
	Offloads OffloadFlags
	// L3Offset and L4Offset are byte offsets of the network and
	// transport headers within Data, or -1 when unset.
	L3Offset int
	L4Offset int
	// Conntrack state attached by the ct() action.
	CtState CtStateFlags
	CtZone  uint16
	CtMark  uint32
	// Tunnel carries decapsulated-tunnel metadata (outer addresses and
	// VNI) between pipeline stages, or nil when the packet is native.
	Tunnel *TunnelInfo
	// SegSize is the TSO segment size for oversized segments (0 when
	// not segmented).
	SegSize int
}

// TunnelInfo mirrors OVS flow tunnel metadata for Geneve/VXLAN/GRE.
type TunnelInfo struct {
	SrcIP   hdr.IP4
	DstIP   hdr.IP4
	VNI     uint32
	Flags   uint8
	OptData []byte // Geneve option payload, if any
}

// Packet is one frame moving through the datapath.
type Packet struct {
	Metadata
	// Data is the frame, starting at the Ethernet header.
	Data []byte
	// pool links the packet back to its owning pool for Release.
	pool *Pool
	// pooled marks packets that live in the pool's contiguous backing
	// array (as opposed to heap-allocated overflow packets).
	pooled bool
	// inFree guards against double-release.
	inFree bool
}

// New allocates a standalone packet (no pool) around data.
func New(data []byte) *Packet {
	p := &Packet{Data: data}
	p.Metadata.L3Offset = -1
	p.Metadata.L4Offset = -1
	return p
}

// ResetMetadata restores packet-independent defaults, keeping the buffer.
func (p *Packet) ResetMetadata() {
	pool := p.pool
	p.Metadata = Metadata{L3Offset: -1, L4Offset: -1}
	p.pool = pool
}

// Clone returns a deep copy, drawn from p's pool when p has one (so Release
// hands it back there) and standalone otherwise.
func (p *Packet) Clone() *Packet {
	var c *Packet
	if p.pool != nil {
		c = p.pool.GetCopy(p.Data)
	} else {
		c = New(append([]byte(nil), p.Data...))
	}
	c.Metadata = p.Metadata
	if p.Tunnel != nil {
		t := *p.Tunnel
		c.Tunnel = &t
	}
	return c
}

// Release returns a pooled packet to its pool; for standalone packets it is
// a no-op.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}

// String summarizes the packet for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("packet{len=%d in_port=%d recirc=%d ct=%s}",
		len(p.Data), p.InPort, p.RecircID, p.CtState)
}

// Pool is the pre-allocated packet-metadata pool of optimization O4. All
// Packet structs live in one contiguous array with packet-independent fields
// pre-initialized, so acquiring a packet costs an index bump rather than an
// allocation, and metadata accesses have good cache locality. A packet gets
// its buffer on its first acquisition and keeps it.
//
// When Preallocated is false the pool simulates the pre-O4 behaviour by
// allocating each Packet individually (the mmap-per-allocation cost is
// charged by the datapath's cost model, not here; this flag exists so the
// code path difference is real).
type Pool struct {
	backing []Packet
	free    []*Packet
	bufSize int
	// Preallocated selects the O4 code path.
	Preallocated bool
	// Allocs counts packet acquisitions that fell back to the heap.
	Allocs uint64
}

// NewPool builds a pool of n packets with bufSize-byte buffers.
// preallocated selects the O4 contiguous-array behaviour.
func NewPool(n, bufSize int, preallocated bool) *Pool {
	p := &Pool{Preallocated: preallocated, bufSize: bufSize}
	if preallocated {
		p.backing = make([]Packet, n)
		p.free = make([]*Packet, n)
		for i := range p.backing {
			pkt := &p.backing[i]
			pkt.Metadata = Metadata{L3Offset: -1, L4Offset: -1}
			pkt.pool = p
			pkt.pooled = true
			p.free[i] = pkt
		}
	}
	return p
}

// GetCopy acquires a packet whose Data is always a private copy of buf,
// including on the heap-fallback path, so buf may be owned by the caller
// and reused afterwards (a umem chunk about to be recycled, a generator's
// frame template).
func (p *Pool) GetCopy(buf []byte) *Packet {
	if p.Preallocated && len(p.free) > 0 {
		pkt := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		pkt.inFree = false
		pkt.ResetMetadata()
		if pkt.Data == nil || cap(pkt.Data) < len(buf) { // first use, or oversize
			pkt.Data = make([]byte, 0, max(len(buf), p.bufSize))
		}
		pkt.Data = append(pkt.Data[:0], buf...)
		return pkt
	}
	p.Allocs++
	pkt := New(append(make([]byte, 0, len(buf)), buf...))
	pkt.pool = p
	return pkt
}

// put returns a packet to the free list (only pool-backed packets;
// heap-allocated overflow packets are left for the GC).
func (p *Pool) put(pkt *Packet) {
	if pkt.pooled && !pkt.inFree {
		pkt.inFree = true
		p.free = append(p.free, pkt)
	}
}

// Available returns the number of pooled packets currently free.
func (p *Pool) Available() int { return len(p.free) }
