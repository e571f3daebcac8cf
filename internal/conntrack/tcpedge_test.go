package conntrack

import (
	"testing"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// handshake drives ipA:sport -> ipB:dport through SYN / SYN-ACK / ACK to
// the established state in zone.
func handshake(ct *Table, zone, sport, dport uint16) {
	ct.Process(tcpPkt(ipA, ipB, sport, dport, hdr.TCPSyn), zone, true, NAT{})
	ct.Process(tcpPkt(ipB, ipA, dport, sport, hdr.TCPSyn|hdr.TCPAck), zone, false, NAT{})
	ct.Process(tcpPkt(ipA, ipB, sport, dport, hdr.TCPAck), zone, false, NAT{})
}

func connState(t *testing.T, ct *Table, zone, sport, dport uint16) State {
	t.Helper()
	tu, _ := TupleOf(tcpPkt(ipA, ipB, sport, dport, hdr.TCPAck))
	c, ok := ct.Find(zone, tu)
	if !ok {
		t.Fatalf("connection %d->%d not found", sport, dport)
	}
	return c.State
}

// TestRSTClosesEveryState sends an RST at each point in the connection's
// life and checks it lands in StateClosed regardless of the state or the
// direction the RST arrives from.
func TestRSTClosesEveryState(t *testing.T) {
	cases := []struct {
		name  string
		setup func(ct *Table) // drive 1000->80 to the target state
		reply bool            // RST direction
	}{
		{"syn-sent/orig", func(ct *Table) {
			ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn), 1, true, NAT{})
		}, false},
		{"syn-sent/reply", func(ct *Table) {
			ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn), 1, true, NAT{})
		}, true},
		{"syn-recv/orig", func(ct *Table) {
			ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn), 1, true, NAT{})
			ct.Process(tcpPkt(ipB, ipA, 80, 1000, hdr.TCPSyn|hdr.TCPAck), 1, false, NAT{})
		}, false},
		{"established/orig", func(ct *Table) { handshake(ct, 1, 1000, 80) }, false},
		{"established/reply", func(ct *Table) { handshake(ct, 1, 1000, 80) }, true},
		{"fin-wait/orig", func(ct *Table) {
			handshake(ct, 1, 1000, 80)
			ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPFin|hdr.TCPAck), 1, false, NAT{})
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ct := NewTable(sim.NewEngine(1))
			tc.setup(ct)
			rst := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPRst)
			if tc.reply {
				rst = tcpPkt(ipB, ipA, 80, 1000, hdr.TCPRst)
			}
			ct.Process(rst, 1, false, NAT{})
			if got := connState(t, ct, 1, 1000, 80); got != StateClosed {
				t.Fatalf("after RST state = %v, want closed", got)
			}
		})
	}
}

// TestSimultaneousClose exercises both sides FIN-ing at once: the stray
// ACKs that follow must keep the record on the short closing timeout, not
// re-pin it for the SYN timeout.
func TestSimultaneousClose(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	handshake(ct, 1, 1000, 80)

	ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPFin|hdr.TCPAck), 1, false, NAT{})
	ct.Process(tcpPkt(ipB, ipA, 80, 1000, hdr.TCPFin|hdr.TCPAck), 1, false, NAT{})
	// The crossing final ACKs land while the connection is closing.
	ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck), 1, false, NAT{})
	ct.Process(tcpPkt(ipB, ipA, 80, 1000, hdr.TCPAck), 1, false, NAT{})
	if got := connState(t, ct, 1, 1000, 80); got != StateFinWait {
		t.Fatalf("after simultaneous close state = %v, want fin-wait", got)
	}

	// The record must expire on the Fin timeout despite the trailing ACKs:
	// past Fin but well before SynSent it is already gone.
	eng.RunUntil(ct.Timeouts.Fin + sim.Second)
	tu, _ := TupleOf(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck))
	if _, ok := ct.Find(1, tu); ok {
		t.Fatal("closing connection still present after Fin timeout")
	}
}

// TestRetransmittedSYNKeepsEstablished: a duplicate SYN arriving on an
// established connection (delayed retransmit) must refresh it, not bounce
// the state machine back to new.
func TestRetransmittedSYNKeepsEstablished(t *testing.T) {
	ct := NewTable(sim.NewEngine(1))
	handshake(ct, 1, 1000, 80)

	dup := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn)
	ct.Process(dup, 1, false, NAT{})
	if got := connState(t, ct, 1, 1000, 80); got != StateEstablished {
		t.Fatalf("after retransmitted SYN state = %v, want established", got)
	}
	if dup.CtState&packet.CtEstablished == 0 || dup.CtState&packet.CtNew != 0 {
		t.Fatalf("retransmitted SYN classified %s, want established", dup.CtState)
	}
	if ct.Created != 1 {
		t.Fatalf("created = %d, want 1 (no re-creation)", ct.Created)
	}
}

// TestFreshSYNReopensClosedConnection: after an RST, a genuinely fresh SYN
// on the same tuple must retire the dead record and start a new tracked
// connection (netfilter's TIME_WAIT reuse), not classify as invalid.
func TestFreshSYNReopensClosedConnection(t *testing.T) {
	ct := NewTable(sim.NewEngine(1))
	handshake(ct, 1, 1000, 80)
	ct.Process(tcpPkt(ipB, ipA, 80, 1000, hdr.TCPRst), 1, false, NAT{})
	if got := connState(t, ct, 1, 1000, 80); got != StateClosed {
		t.Fatalf("state = %v, want closed", got)
	}

	syn := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn)
	ct.Process(syn, 1, true, NAT{})
	if syn.CtState&packet.CtNew == 0 || syn.CtState&packet.CtInvalid != 0 {
		t.Fatalf("reopening SYN classified %s, want new", syn.CtState)
	}
	if got := connState(t, ct, 1, 1000, 80); got != StateSynSent {
		t.Fatalf("reopened state = %v, want syn-sent", got)
	}
	if ct.Created != 2 || ct.Expired != 1 || ct.Len() != 1 {
		t.Fatalf("created=%d expired=%d len=%d, want 2/1/1", ct.Created, ct.Expired, ct.Len())
	}
}

// TestConntrackEstablishedLookupZeroAlloc pins the hot paths: processing a
// packet of an established connection (lookup + state machine + LRU touch),
// a lookup that misses, and — once the free list and the index have reached
// their steady size — a commit followed by the lookup that finds the record
// expired and reclaims it must not allocate.
func TestConntrackEstablishedLookupZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Timeouts.SynSent = sim.Millisecond
	handshake(ct, 1, 1000, 80)
	p := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck|hdr.TCPPsh)
	if n := testing.AllocsPerRun(200, func() {
		ct.Process(p, 1, true, NAT{})
	}); n != 0 {
		t.Fatalf("established-connection Process allocates %.1f/op, want 0", n)
	}

	miss := tcpPkt(ipA, ipB, 2000, 80, hdr.TCPAck)
	if n := testing.AllocsPerRun(200, func() {
		ct.Process(miss, 1, false, NAT{})
	}); n != 0 {
		t.Fatalf("missing lookup allocates %.1f/op, want 0", n)
	}

	syn := tcpPkt(ipA, ipB, 3000, 80, hdr.TCPSyn)
	tu, _ := TupleOf(syn)
	if n := testing.AllocsPerRun(200, func() {
		ct.Process(syn, 1, true, NAT{})
		eng.RunUntil(eng.Now() + 2*sim.Millisecond)
		if _, ok := ct.Find(1, tu); ok {
			t.Fatal("connection outlived its timeout")
		}
	}); n != 0 {
		t.Fatalf("commit-then-expire cycle allocates %.1f/op, want 0", n)
	}
	if ct.Len() != 1 || ct.Created != 202 || ct.Expired != 201 {
		t.Fatalf("len=%d created=%d expired=%d after the cycles, want 1/202/201", ct.Len(), ct.Created, ct.Expired)
	}
}
