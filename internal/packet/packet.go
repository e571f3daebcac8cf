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
	"slices"
	"strings"

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
	var names []string
	for i, name := range []string{"trk", "new", "est", "rel", "rpl", "inv"} {
		if s&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, ",")
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
	// pooled marks packets that live in one of the pool's chunks (as
	// opposed to heap-allocated overflow packets).
	pooled bool
	// inFree guards against double-release.
	inFree bool
}

// New allocates a standalone packet (no pool) around data.
func New(data []byte) *Packet {
	return &Packet{Metadata: Metadata{L3Offset: -1, L4Offset: -1}, Data: data}
}

// ResetMetadata restores packet-independent defaults, keeping the buffer.
func (p *Packet) ResetMetadata() { p.Metadata = Metadata{L3Offset: -1, L4Offset: -1} }

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

// Segment is TCP segmentation (TSO), written once for every egress that
// performs it: it splits p into frames of p's header plus at most SegSize
// payload bytes each, or returns nil when there is nothing to split (SegSize
// unset, or a payload of at most SegSize). The header runs through the TCP
// header: L4Offset plus the TCP data offset, at least 20 bytes; 54 (Ethernet,
// IPv4, TCP) when L4Offset is unset or leaves no room for a TCP header; never
// past the frame. Each segment is a standalone copy carrying p's metadata,
// checksum state included, without SegSize and the TSO bit. Who pays for the
// split, and releasing p, is the caller's.
func (p *Packet) Segment() []*Packet {
	if p.SegSize <= 0 {
		return nil
	}
	hdrLen := 54
	if p.L4Offset > 0 && p.L4Offset <= len(p.Data)-hdr.TCPMinSize {
		dataOff := int(p.Data[p.L4Offset+12]>>4) * 4
		hdrLen = p.L4Offset + max(dataOff, hdr.TCPMinSize)
	}
	hdrLen = min(hdrLen, len(p.Data))
	payload := p.Data[hdrLen:]
	if len(payload) <= p.SegSize {
		return nil
	}
	segs := make([]*Packet, 0, (len(payload)+p.SegSize-1)/p.SegSize)
	for off := 0; off < len(payload); off += p.SegSize {
		end := min(off+p.SegSize, len(payload))
		data := make([]byte, hdrLen+end-off)
		copy(data, p.Data[:hdrLen])
		copy(data[hdrLen:], payload[off:end])
		s := New(data)
		s.Metadata = p.Metadata
		s.SegSize = 0
		s.Offloads &^= TSO
		segs = append(segs, s)
	}
	return segs
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

// Pool is the pre-allocated packet-metadata pool of optimization O4. Packet
// structs live in contiguous chunks of poolChunk with packet-independent
// fields pre-initialized, so acquiring a packet is a free-list pop rather
// than an allocation, and metadata accesses have good cache locality. An
// acquisition that finds the free list empty grows one chunk, up to the
// pool's capacity; chunks never move. A packet gets its buffer on its first
// acquisition and keeps it. A pool thus holds its peak working set.
//
// A pool built with preallocated false is the pre-O4 behaviour: every
// Packet is allocated individually. The switch's O4 ablation does not use
// it; it charges the mmap-per-allocation cost in the datapath's cost model
// (core.Options.MetadataMmap).
type Pool struct {
	// chunks are the metadata arrays grown so far, each filling the slots
	// below its predecessor's: fresh packets come out from slot n-1 down.
	chunks  [][]Packet
	free    []*Packet
	bufSize int
	// n is the capacity; grown counts the packets the chunks hold.
	n, grown int
	// Allocs counts packet acquisitions that fell back to the heap.
	Allocs uint64
}

// poolChunk is the number of packets a pool's metadata grows by.
const poolChunk = 64

// NewPool builds a pool of up to n packets with bufSize-byte buffers.
// preallocated selects the O4 chunked-array behaviour.
func NewPool(n, bufSize int, preallocated bool) *Pool {
	p := &Pool{bufSize: bufSize}
	if preallocated {
		p.n = n
	}
	return p
}

// grow allocates the next chunk and pushes it onto the empty free list with
// its top slot last, so LIFO acquisition walks slots downwards.
func (p *Pool) grow() {
	chunk := make([]Packet, min(poolChunk, p.n-p.grown))
	p.grown += len(chunk)
	p.chunks = append(p.chunks, chunk)
	// The free list can hold every grown packet, so put never allocates.
	p.free = slices.Grow(p.free, p.grown)
	for i := range chunk {
		chunk[i] = Packet{Metadata: Metadata{L3Offset: -1, L4Offset: -1}, pool: p, pooled: true}
		p.free = append(p.free, &chunk[i])
	}
}

// GetCopy acquires a packet whose Data is always a private copy of buf,
// including on the heap-fallback path, so buf may be owned by the caller
// and reused afterwards (a umem chunk about to be recycled, a generator's
// frame template).
func (p *Pool) GetCopy(buf []byte) *Packet {
	if len(p.free) == 0 && p.grown < p.n {
		p.grow()
	}
	if len(p.free) > 0 {
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

// Available returns the number of pooled packets an acquisition can still
// take without the heap: those free plus those not yet grown.
func (p *Pool) Available() int { return len(p.free) + p.n - p.grown }
