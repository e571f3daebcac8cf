package conntrack

import (
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
)

// ICMP error handling. An ICMP error (destination unreachable, time
// exceeded, ...) quotes the IP header + first 8 L4 bytes of the packet
// that triggered it. The tracker must look that embedded tuple up and
// relate the error to the originating connection — including un-NATing
// the outer header so the error reaches the private endpoint. The old
// tracker instead treated the error as a fresh ICMP flow keyed by its
// (zero) identifier: errors never matched their connection, and with
// commit set they polluted the table with bogus entries.

// ICMP error types (RFC 792). hdr only names echo request/reply, so the
// error types live here.
const (
	icmpDestUnreachable = 3
	icmpSourceQuench    = 4
	icmpRedirect        = 5
	icmpTimeExceeded    = 11
	icmpParamProblem    = 12
)

func icmpErrorType(typ uint8) bool {
	switch typ {
	case icmpDestUnreachable, icmpSourceQuench, icmpRedirect, icmpTimeExceeded, icmpParamProblem:
		return true
	}
	return false
}

// processICMPError relates an ICMP error to the connection that triggered
// it via the embedded tuple. Matched errors are marked related (never
// new), counted in RelatedICMP, and de-NATed; unmatched ones are
// invalid. No table entry is ever created for an error, commit or not.
func (t *Table) processICMPError(p *packet.Packet, zone uint16) {
	emb, ok := embeddedTuple(p)
	if !ok {
		p.CtState = packet.CtTracked | packet.CtInvalid
		return
	}
	c, embOrig, found := t.findRelated(zone, emb)
	if !found {
		p.CtState = packet.CtTracked | packet.CtInvalid
		return
	}
	p.CtState = packet.CtTracked | packet.CtRelated
	t.RelatedICMP++
	if embOrig {
		// The embedded packet traveled the original direction, so the
		// error travels the reply direction — back toward the
		// originator, through any translation.
		p.CtState |= packet.CtReply
	}
	t.natAddr(p, c, embOrig)
}

// findRelated resolves an embedded tuple to its connection. The embedded
// tuple is as seen on the wire, so for a NATed connection it may be the
// post-translation form; both the direct and reversed forms are probed
// against the table's two per-connection keys, through lookup so that a
// connection past its deadline is reclaimed, not related to. embOrig
// reports whether the embedded packet traveled the connection's original
// direction.
func (t *Table) findRelated(zone uint16, emb Tuple) (c *Conn, embOrig, found bool) {
	if c := t.lookup(zone, &emb); c != nil {
		return c, emb == c.Orig, true
	}
	rev := emb.Reverse()
	if c := t.lookup(zone, &rev); c != nil {
		// rev matched a table key: if it is the reply key, the embedded
		// tuple was the (translated) original direction.
		return c, rev != c.Orig, true
	}
	return nil, false, false
}

// embeddedTuple parses the tuple of the packet quoted inside an ICMP
// error: the inner IP header plus the first 4 L4 bytes (ports) — all RFC
// 792 guarantees is 8 L4 bytes.
func embeddedTuple(p *packet.Packet) (Tuple, bool) {
	var tu Tuple
	d := p.Data
	eth, err := hdr.ParseEthernet(d)
	if err != nil {
		return tu, false
	}
	ip, err := hdr.ParseIPv4(d[eth.HeaderLen:])
	if err != nil {
		return tu, false
	}
	l4 := d[eth.HeaderLen+ip.HeaderLen:]
	if len(l4) < hdr.ICMPSize {
		return tu, false
	}
	inner := l4[hdr.ICMPSize:]
	iip, err := hdr.ParseIPv4(inner)
	if err != nil {
		return tu, false
	}
	tu.SrcIP, tu.DstIP, tu.Proto = iip.Src, iip.Dst, iip.Proto
	il4 := inner[iip.HeaderLen:]
	switch iip.Proto {
	case hdr.IPProtoTCP, hdr.IPProtoUDP:
		if len(il4) < 4 {
			return tu, false
		}
		tu.SrcPort = uint16(il4[0])<<8 | uint16(il4[1])
		tu.DstPort = uint16(il4[2])<<8 | uint16(il4[3])
	case hdr.IPProtoICMP:
		h, err := hdr.ParseICMP(il4)
		if err != nil {
			return tu, false
		}
		tu.SrcPort, tu.DstPort = h.ID, h.ID
	default:
		return tu, false
	}
	return tu, true
}
