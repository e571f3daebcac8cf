package conntrack

import (
	"testing"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

var ipRouter = hdr.MakeIP4(10, 0, 0, 254)

// quotedPacket builds the ICMP-error payload: the quoted IP header plus
// the first 8 L4 bytes of the packet that triggered the error.
func quotedPacket(src, dst hdr.IP4, sport, dport uint16) []byte {
	frame := hdr.NewBuilder().Eth(macA, macB).IPv4H(src, dst, 64).
		TCPH(sport, dport, 1, 0, hdr.TCPAck).Build()
	ip, _ := hdr.ParseIPv4(frame[hdr.EthernetSize:])
	return frame[hdr.EthernetSize : hdr.EthernetSize+ip.HeaderLen+8]
}

// icmpError builds a destination-unreachable carrying the quoted packet.
func icmpError(src, dst hdr.IP4, quoted []byte) *packet.Packet {
	return packet.New(hdr.NewBuilder().Eth(macB, macA).IPv4H(src, dst, 64).
		ICMPH(icmpDestUnreachable, 1, 0, 0).Payload(quoted).Build())
}

// TestICMPErrorRelatesToConnection: an ICMP error quoting an existing
// connection's packet maps back to that connection — related, reply
// direction, counted in RelatedICMP, the connection still the one found
// under its tuple with the deadline its last packet gave it (an error, as in
// OVS, runs no state machine and refreshes nothing) — and never creates a
// table entry, commit or not.
// The old tracker keyed the error as a fresh ICMP flow by its (zero)
// identifier, so errors never matched and polluted the table.
func TestICMPErrorRelatesToConnection(t *testing.T) {
	ct := NewTable(sim.NewEngine(1))
	handshake(ct, 1, 1000, 80)
	c := findConn(t, ct, 1, 1000, 80)
	due := c.expires
	ct.eng.RunUntil(sim.Second)

	p := icmpError(ipRouter, ipA, quotedPacket(ipA, ipB, 1000, 80))
	ct.Process(p, 1, true, NAT{})
	want := packet.CtTracked | packet.CtRelated | packet.CtReply
	if p.CtState&want != want || p.CtState&(packet.CtNew|packet.CtInvalid) != 0 {
		t.Fatalf("error classified %s, want related+reply", p.CtState)
	}
	if ct.RelatedICMP != 1 || ct.Len() != 1 || ct.Created != 1 {
		t.Fatalf("related=%d len=%d created=%d, want 1/1/1 (no entry for the error)",
			ct.RelatedICMP, ct.Len(), ct.Created)
	}
	if got := findConn(t, ct, 1, 1000, 80); got != c || c.State != StateEstablished || c.expires != due {
		t.Fatalf("error related to %p (connection %p), leaving it %s due %v, want it established due %v",
			got, c, c.State, c.expires, due)
	}
}

// TestICMPErrorUnNATed: for a source-NATed connection the error quotes the
// translated packet and arrives addressed to the translation; relating it
// must rewrite the outer destination back to the private endpoint so the
// error actually reaches the sender.
func TestICMPErrorUnNATed(t *testing.T) {
	ct := NewTable(sim.NewEngine(1))
	ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn), 1, true, snatRange(40000, 40003))

	p := icmpError(ipB, natIP, quotedPacket(natIP, ipB, 40000, 80))
	ct.Process(p, 1, false, NAT{})
	if p.CtState&packet.CtRelated == 0 || p.CtState&packet.CtReply == 0 {
		t.Fatalf("NATed error classified %s, want related+reply", p.CtState)
	}
	ip, _ := hdr.ParseIPv4(p.Data[hdr.EthernetSize:])
	if ip.Dst != ipA {
		t.Fatalf("outer destination = %v, want un-NATed %v", ip.Dst, ipA)
	}
}

// TestICMPErrorForExpiredConnectionInvalid: with wheel expiry off a record
// lingers past its deadline until something touches it. An error quoting
// such a connection — here a source-NATed one, in either quoted direction —
// must reclaim it like any other lookup would, not relate to it, count it
// and rewrite the error's addresses from a dead translation.
func TestICMPErrorForExpiredConnectionInvalid(t *testing.T) {
	quotes := map[string][]byte{
		"original direction": quotedPacket(natIP, ipB, 40000, 80),
		"reply direction":    quotedPacket(ipB, natIP, 80, 40000),
	}
	for name, quoted := range quotes {
		eng := sim.NewEngine(1)
		ct := NewTable(eng)
		ct.Timeouts.SynSent = 10 * sim.Millisecond
		ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn), 1, true, snatRange(40000, 40003))
		eng.RunUntil(20 * sim.Millisecond)
		if ct.Len() != 1 {
			t.Fatalf("%s: len = %d, want the expired record still lingering", name, ct.Len())
		}

		p := icmpError(ipB, natIP, quoted)
		ct.Process(p, 1, false, NAT{})
		if p.CtState&packet.CtInvalid == 0 || p.CtState&packet.CtRelated != 0 {
			t.Fatalf("%s: error for an expired connection classified %s, want invalid", name, p.CtState)
		}
		if ct.RelatedICMP != 0 || ct.Len() != 0 || ct.Expired != 1 {
			t.Fatalf("%s: related=%d len=%d expired=%d, want 0/0/1 (record reclaimed)",
				name, ct.RelatedICMP, ct.Len(), ct.Expired)
		}
		if ip, _ := hdr.ParseIPv4(p.Data[hdr.EthernetSize:]); ip.Dst != natIP {
			t.Fatalf("%s: outer destination rewritten to %v by an expired translation", name, ip.Dst)
		}
	}
}

// TestICMPErrorUnmatchedInvalid: an error quoting an unknown tuple is
// invalid and leaves no state behind even when committed.
func TestICMPErrorUnmatchedInvalid(t *testing.T) {
	ct := NewTable(sim.NewEngine(1))
	p := icmpError(ipRouter, ipA, quotedPacket(ipA, ipB, 4444, 9999))
	ct.Process(p, 1, true, NAT{})
	if p.CtState&packet.CtInvalid == 0 {
		t.Fatalf("unmatched error classified %s, want invalid", p.CtState)
	}
	if ct.Len() != 0 || ct.Created != 0 {
		t.Fatalf("len=%d created=%d, want no entries", ct.Len(), ct.Created)
	}
}

// TestICMPErrorHasNoTupleOfItsOwn: the error is matched through its
// embedded tuple, so TupleOf must refuse to give it one.
func TestICMPErrorHasNoTupleOfItsOwn(t *testing.T) {
	p := icmpError(ipRouter, ipA, quotedPacket(ipA, ipB, 1000, 80))
	if _, ok := TupleOf(p); ok {
		t.Fatal("ICMP error must not extract as a standalone tuple")
	}
}
