package conntrack

import (
	"testing"

	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// TestLadderEarlyDropInSoftBand: between soft and hard the ladder admits
// new commits but sheds the oldest embryonic connection, so embryonic
// state recycles instead of accumulating toward the hard limit.
func TestLadderEarlyDropInSoftBand(t *testing.T) {
	ct := NewTable(sim.NewEngine(1))
	ct.SetZoneLimits(1, 3, 10)

	tuples := fillConns(ct, 1, 3) // at soft, all embryonic
	p := tcpPkt(hdr.MakeIP4(10, 9, 9, 9), ipB, 5000, 80, hdr.TCPSyn)
	ct.Process(p, 1, true, NAT{})
	if p.CtState&packet.CtNew == 0 {
		t.Fatalf("soft-band commit classified %s, want new (admitted)", p.CtState)
	}
	if ct.EarlyDrops != 1 || ct.ZoneCount(1) != 3 {
		t.Fatalf("early-drops=%d zone=%d, want 1/3", ct.EarlyDrops, ct.ZoneCount(1))
	}
	if _, ok := ct.Find(1, tuples[0]); ok {
		t.Fatal("oldest embryonic connection must be the one shed")
	}
	if _, ok := ct.Find(1, tuples[1]); !ok {
		t.Fatal("younger embryonic connection wrongly shed")
	}
}

// TestLadderEvictionOrderAtHard: at the hard limit the ladder evicts the
// oldest closing connection first, then the oldest embryonic — never an
// established one.
func TestLadderEvictionOrderAtHard(t *testing.T) {
	ct := NewTable(sim.NewEngine(1))
	ct.SetZoneLimits(1, 3, 3)

	handshake(ct, 1, 1000, 80) // A: established
	handshake(ct, 1, 1001, 80) // B: will be closing
	ct.Process(tcpPkt(ipA, ipB, 1001, 80, hdr.TCPFin|hdr.TCPAck), 1, false, NAT{})
	ct.Process(tcpPkt(ipA, ipB, 1002, 80, hdr.TCPSyn), 1, true, NAT{}) // C: embryonic

	// D commits at the hard limit: the closing B goes first.
	ct.Process(tcpPkt(ipA, ipB, 1003, 80, hdr.TCPSyn), 1, true, NAT{})
	if ct.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", ct.Evicted)
	}
	tuB, _ := TupleOf(tcpPkt(ipA, ipB, 1001, 80, hdr.TCPAck))
	if _, ok := ct.Find(1, tuB); ok {
		t.Fatal("closing connection must be evicted first")
	}

	// E commits: no closing left, so the oldest embryonic (C) goes.
	ct.Process(tcpPkt(ipA, ipB, 1004, 80, hdr.TCPSyn), 1, true, NAT{})
	if ct.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", ct.Evicted)
	}
	tuC, _ := TupleOf(tcpPkt(ipA, ipB, 1002, 80, hdr.TCPAck))
	if _, ok := ct.Find(1, tuC); ok {
		t.Fatal("oldest embryonic connection must be evicted next")
	}
	if got := connState(t, ct, 1, 1000, 80); got != StateEstablished {
		t.Fatalf("established connection disturbed: state %v", got)
	}
}

// TestLadderRejectsAllEstablished: with every slot held by an established
// connection there is no acceptable victim — the commit is refused and
// counted as a table-full drop, exactly like the hard-reject limit.
func TestLadderRejectsAllEstablished(t *testing.T) {
	ct := NewTable(sim.NewEngine(1))
	ct.SetZoneLimits(1, 2, 2)
	handshake(ct, 1, 1000, 80)
	handshake(ct, 1, 1001, 80)

	p := tcpPkt(ipA, ipB, 1002, 80, hdr.TCPSyn)
	ct.Process(p, 1, true, NAT{})
	if p.CtState&packet.CtInvalid == 0 {
		t.Fatalf("refused commit classified %s, want invalid", p.CtState)
	}
	if ct.LimitHits != 1 || ct.Evicted != 0 || ct.ZoneCount(1) != 2 {
		t.Fatalf("limit-hits=%d evicted=%d zone=%d, want 1/0/2",
			ct.LimitHits, ct.Evicted, ct.ZoneCount(1))
	}
}

// TestConservationLedger: across admits, sheds, evictions, and expiries,
// every created connection is accounted for by exactly one removal
// counter.
func TestConservationLedger(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Timeouts.SynSent = 10 * sim.Millisecond
	ct.SetZoneLimits(1, 50, 60)
	fillConns(ct, 1, 200) // far past both limits: sheds and evictions
	eng.RunUntil(sim.Second)
	ct.Sweep() // everything left is long expired

	c := ct.Counters()
	if c.Created != c.Expired+c.EarlyDrops+c.Evicted+uint64(ct.Len()) {
		t.Fatalf("ledger broken: created %d != expired %d + early %d + evicted %d + live %d",
			c.Created, c.Expired, c.EarlyDrops, c.Evicted, ct.Len())
	}
	if c.EarlyDrops == 0 {
		t.Fatal("expected soft-band early drops")
	}
}

// TestConntrackPressureFault wires a faultinject conntrack-pressure window
// to the zone clamp: inside the window commits run the forced ladder
// against the clamped limit; after it closes the zone returns to
// unlimited.
func TestConntrackPressureFault(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	inj := faultinject.New(eng)

	fillConns(ct, 5, 4)
	inj.Window(faultinject.KindConntrackPressure, "zone5",
		10*sim.Millisecond, 20*sim.Millisecond, func(active bool) {
			if active {
				ct.SetPressure(5, 2)
			} else {
				ct.SetPressure(5, 0)
			}
		})

	// Inside the window: the clamp forces the ladder, which must evict an
	// embryonic victim to admit the commit.
	eng.ScheduleAt(15*sim.Millisecond, func() {
		p := tcpPkt(ipA, ipB, 7000, 80, hdr.TCPSyn)
		ct.Process(p, 5, true, NAT{})
		if p.CtState&packet.CtNew == 0 {
			t.Errorf("clamped commit classified %s, want new via eviction", p.CtState)
		}
		if ct.Evicted != 1 {
			t.Errorf("evicted = %d inside pressure window, want 1", ct.Evicted)
		}
	})
	// After the window: unlimited again, no further pressure removals.
	eng.ScheduleAt(40*sim.Millisecond, func() {
		before := ct.PressureRemovals()
		p := tcpPkt(ipA, ipB, 7001, 80, hdr.TCPSyn)
		ct.Process(p, 5, true, NAT{})
		if p.CtState&packet.CtNew == 0 || ct.PressureRemovals() != before {
			t.Errorf("commit after window: state %s, removals %d->%d",
				p.CtState, before, ct.PressureRemovals())
		}
	})
	eng.RunUntil(50 * sim.Millisecond)
	if inj.Windows(faultinject.KindConntrackPressure) != 1 {
		t.Fatalf("windows = %d, want 1", inj.Windows(faultinject.KindConntrackPressure))
	}
}
