package packet_test

import (
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
)

// The two TCP segmenters packet.(*Packet).Segment replaced, kept verbatim as
// the differential's references (segment_test.go). They disagree on odd
// frames, and Segment follows refNICSegment wherever they do:
//   - a TCP data offset below 5: refCoreSegment replicates L4Offset plus the
//     offset as written, refNICSegment floors the TCP header at 20 bytes;
//   - a TCP header cut off by the frame's end: refCoreSegment replicates
//     L4Offset bytes, refNICSegment 54;
//   - the threshold, which was each caller's: the datapath segmented a frame
//     longer than SegSize+64, the NIC one longer than SegSize (Segment splits
//     a payload longer than SegSize);
//   - refCoreSegment left the TSO bit set on its segments.
//
// refNICSegment's CsumVerified marking is the NIC caller's now.

// refCoreSegment is the datapath's software TSO (softwareSegment in
// internal/core), called for a frame longer than SegSize+64.
func refCoreSegment(p *packet.Packet) []*packet.Packet {
	hdrLen := p.L4Offset
	if hdrLen <= 0 || hdrLen > len(p.Data) {
		hdrLen = 54
	} else if hdrLen+hdr.TCPMinSize <= len(p.Data) {
		hdrLen += int(p.Data[hdrLen+12]>>4) * 4
	}
	if hdrLen > len(p.Data) {
		hdrLen = len(p.Data)
	}
	payload := p.Data[hdrLen:]
	var out []*packet.Packet
	for off := 0; off < len(payload); off += p.SegSize {
		end := off + p.SegSize
		if end > len(payload) {
			end = len(payload)
		}
		data := make([]byte, hdrLen+end-off)
		copy(data, p.Data[:hdrLen])
		copy(data[hdrLen:], payload[off:end])
		s := packet.New(data)
		s.Metadata = p.Metadata
		s.SegSize = 0
		out = append(out, s)
	}
	if len(out) == 0 {
		return []*packet.Packet{p}
	}
	return out
}

// refNICSegment is the NIC's hardware TSO (segment in internal/nicsim),
// called for a frame longer than SegSize.
func refNICSegment(p *packet.Packet) []*packet.Packet {
	hdrLen := 54 // eth + ipv4 + minimal tcp, when offsets are unknown
	if p.L4Offset > 0 && p.L4Offset+hdr.TCPMinSize <= len(p.Data) {
		dataOff := int(p.Data[p.L4Offset+12]>>4) * 4
		if dataOff < hdr.TCPMinSize {
			dataOff = hdr.TCPMinSize
		}
		hdrLen = p.L4Offset + dataOff
	}
	if hdrLen > len(p.Data) {
		hdrLen = len(p.Data)
	}
	payload := p.Data[hdrLen:]
	var out []*packet.Packet
	for off := 0; off < len(payload); off += p.SegSize {
		end := off + p.SegSize
		if end > len(payload) {
			end = len(payload)
		}
		data := make([]byte, hdrLen+end-off)
		copy(data, p.Data[:hdrLen])
		copy(data[hdrLen:], payload[off:end])
		seg := packet.New(data)
		seg.Metadata = p.Metadata
		seg.SegSize = 0
		seg.Offloads &^= packet.CsumPartial | packet.TSO
		seg.Offloads |= packet.CsumVerified
		out = append(out, seg)
	}
	if len(out) == 0 {
		out = append(out, p)
	}
	return out
}
