package conntrack

import (
	"testing"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

var natIP = hdr.MakeIP4(192, 0, 2, 1)

func snatRange(lo, hi uint16) NAT {
	return NAT{Kind: SNAT, Addr: natIP, PortLo: lo, PortHi: hi}
}

func findConn(t *testing.T, ct *Table, zone, sport, dport uint16) *Conn {
	t.Helper()
	tu, _ := TupleOf(tcpPkt(ipA, ipB, sport, dport, hdr.TCPAck))
	c, ok := ct.Find(zone, tu)
	if !ok {
		t.Fatalf("connection %d->%d not found", sport, dport)
	}
	return c
}

// natPort returns the port c's translation rewrites to, 0 for none.
func natPort(ct *Table, c *Conn) uint16 { return ct.nats[c.nat].Port }

// TestNATPortDeterministicAllocation: the next-fit rotor hands out ports
// in ascending wrap-around order — same commits, same ports, every run.
func TestNATPortDeterministicAllocation(t *testing.T) {
	ct := NewTable(sim.NewEngine(1))
	for i, want := range []uint16{40000, 40001, 40002} {
		sport := uint16(1000 + i)
		ct.Process(tcpPkt(ipA, ipB, sport, 80, hdr.TCPSyn), 1, true, snatRange(40000, 40003))
		if got := natPort(ct, findConn(t, ct, 1, sport, 80)); got != want {
			t.Fatalf("conn %d allocated port %d, want %d", i, got, want)
		}
	}
}

// TestNATReplyTranslation: the original direction is rewritten to the
// translated address:port; a reply addressed to the translation comes back
// rewritten to the private endpoint.
func TestNATReplyTranslation(t *testing.T) {
	ct := NewTable(sim.NewEngine(1))
	orig := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn)
	ct.Process(orig, 1, true, snatRange(40000, 40003))

	ip, _ := hdr.ParseIPv4(orig.Data[hdr.EthernetSize:])
	tcp, _ := hdr.ParseTCP(orig.Data[hdr.EthernetSize+ip.HeaderLen:])
	if ip.Src != natIP || tcp.SrcPort != 40000 {
		t.Fatalf("forward rewrite = %v:%d, want %v:40000", ip.Src, tcp.SrcPort, natIP)
	}

	reply := tcpPkt(ipB, natIP, 80, 40000, hdr.TCPSyn|hdr.TCPAck)
	ct.Process(reply, 1, false, NAT{})
	if reply.CtState&packet.CtReply == 0 {
		t.Fatalf("reply classified %s, want reply direction", reply.CtState)
	}
	rip, _ := hdr.ParseIPv4(reply.Data[hdr.EthernetSize:])
	rtcp, _ := hdr.ParseTCP(reply.Data[hdr.EthernetSize+rip.HeaderLen:])
	if rip.Dst != ipA || rtcp.DstPort != 1000 {
		t.Fatalf("reply rewrite = %v:%d, want %v:1000", rip.Dst, rtcp.DstPort, ipA)
	}
}

// TestNATExhaustionEvictsThenRejects: with the range exhausted by
// embryonic holders the oldest is evicted and its port recycled; once
// every holder is established, the commit is deterministically refused.
func TestNATExhaustionEvictsThenRejects(t *testing.T) {
	ct := NewTable(sim.NewEngine(1))
	nat := snatRange(41000, 41001)

	// Two embryonic holders exhaust the range.
	ct.Process(tcpPkt(ipA, ipB, 2000, 80, hdr.TCPSyn), 1, true, nat)
	ct.Process(tcpPkt(ipA, ipB, 2001, 80, hdr.TCPSyn), 1, true, nat)

	// Third commit evicts the oldest embryonic holder for its port.
	p := tcpPkt(ipA, ipB, 2002, 80, hdr.TCPSyn)
	ct.Process(p, 1, true, nat)
	if p.CtState&packet.CtNew == 0 {
		t.Fatalf("commit classified %s, want new via port eviction", p.CtState)
	}
	if ct.NATPortEvictions != 1 || ct.Evicted != 1 {
		t.Fatalf("port-evictions=%d evicted=%d, want 1/1", ct.NATPortEvictions, ct.Evicted)
	}
	tu0, _ := TupleOf(tcpPkt(ipA, ipB, 2000, 80, hdr.TCPAck))
	if _, ok := ct.Find(1, tu0); ok {
		t.Fatal("oldest port holder must be the one evicted")
	}

	// Establish both holders: no evictable victim remains.
	for _, sport := range []uint16{2001, 2002} {
		c := findConn(t, ct, 1, sport, 80)
		ct.Process(tcpPkt(ipB, natIP, 80, natPort(ct, c), hdr.TCPSyn|hdr.TCPAck), 1, false, NAT{})
		ct.Process(tcpPkt(ipA, ipB, sport, 80, hdr.TCPAck), 1, false, NAT{})
	}
	p = tcpPkt(ipA, ipB, 2003, 80, hdr.TCPSyn)
	ct.Process(p, 1, true, nat)
	if p.CtState&packet.CtInvalid == 0 {
		t.Fatalf("exhausted commit classified %s, want invalid", p.CtState)
	}
	if ct.NATExhausted != 1 || ct.Len() != 2 {
		t.Fatalf("nat-exhausted=%d len=%d, want 1/2", ct.NATExhausted, ct.Len())
	}
}

// TestNATPortReleaseOnRemoval: a removed connection's port returns to the
// pool and is re-allocated without an eviction.
func TestNATPortReleaseOnRemoval(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	nat := snatRange(42000, 42000) // single-port pool

	ct.Process(tcpPkt(ipA, ipB, 3000, 80, hdr.TCPSyn), 1, true, nat)
	ct.Process(tcpPkt(ipA, ipB, 3000, 80, hdr.TCPRst), 1, false, NAT{})
	eng.RunUntil(ct.Timeouts.Fin + sim.Second)
	ct.Sweep()
	if ct.Len() != 0 {
		t.Fatalf("len = %d after sweep, want 0", ct.Len())
	}

	ct.Process(tcpPkt(ipA, ipB, 3001, 80, hdr.TCPSyn), 1, true, nat)
	c := findConn(t, ct, 1, 3001, 80)
	if natPort(ct, c) != 42000 || ct.NATPortEvictions != 0 || ct.NATExhausted != 0 {
		t.Fatalf("port=%d evictions=%d exhausted=%d, want released port reused cleanly",
			natPort(ct, c), ct.NATPortEvictions, ct.NATExhausted)
	}
}
