package conntrack

import (
	"testing"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// TestWheelExpiresIdleWithoutSweep: with wheel expiry enabled an idle
// connection is removed by its list's timer — no Sweep, no lookup needed.
func TestWheelExpiresIdleWithoutSweep(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Timeouts.SynSent = 10 * sim.Millisecond
	ct.EnableWheelExpiry(true)

	ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn), 1, true, NAT{})
	if ct.Len() != 1 {
		t.Fatalf("len = %d, want 1", ct.Len())
	}
	eng.RunUntil(20 * sim.Millisecond)
	if ct.Len() != 0 || ct.Expired != 1 {
		t.Fatalf("len=%d expired=%d after timeout, want 0/1", ct.Len(), ct.Expired)
	}
}

// TestWheelLazyRearmKeepsActive: traffic moves the connection to the tail
// of its list; when the list's timer fires at the stale head deadline it
// must re-arm for the refreshed one instead of killing the active
// connection.
func TestWheelLazyRearmKeepsActive(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Timeouts = Timeouts{SynSent: 50 * sim.Millisecond, Established: 50 * sim.Millisecond,
		UDP: 50 * sim.Millisecond, Fin: 50 * sim.Millisecond}
	ct.EnableWheelExpiry(true)
	handshake(ct, 1, 1000, 80)

	// Refresh at 20ms and 40ms; the original 50ms deadline passes with
	// the connection active.
	for _, at := range []sim.Time{20 * sim.Millisecond, 40 * sim.Millisecond} {
		eng.ScheduleAt(at, func() {
			ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck), 1, false, NAT{})
		})
	}
	eng.RunUntil(70 * sim.Millisecond)
	if ct.Len() != 1 {
		t.Fatal("active connection expired despite refreshes")
	}
	// Idle from 40ms: gone once 40ms + 50ms passes.
	eng.RunUntil(120 * sim.Millisecond)
	if ct.Len() != 0 {
		t.Fatal("idle connection survived its refreshed deadline")
	}
}

// TestWheelExpiryHonoursShortenedTimeout: a FIN on an established
// connection cuts its deadline from the established timeout to the FIN
// timeout, and the wheel removes it at the FIN deadline, not at the
// established one it was first queued for.
func TestWheelExpiryHonoursShortenedTimeout(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.EnableWheelExpiry(true)
	ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck), 1, true, NAT{}) // loose pickup: established
	eng.RunUntil(sim.Second)
	ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPFin|hdr.TCPAck), 1, false, NAT{})

	eng.RunUntil(sim.Second + TimeoutFin - 1)
	if ct.Len() != 1 {
		t.Fatalf("len = %d before the FIN deadline, want 1", ct.Len())
	}
	eng.RunUntil(sim.Second + TimeoutFin + sim.Millisecond)
	if ct.Len() != 0 || ct.Expired != 1 {
		t.Fatalf("len=%d expired=%d after the FIN deadline, want 0/1", ct.Len(), ct.Expired)
	}
}

// TestEnableWheelOnExistingTable: flipping wheel expiry on arms the lists
// of every connection already in the table.
func TestEnableWheelOnExistingTable(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Timeouts.SynSent = 10 * sim.Millisecond
	fillConns(ct, 1, 3)

	ct.EnableWheelExpiry(true)
	eng.RunUntil(30 * sim.Millisecond)
	if ct.Len() != 0 || ct.Expired != 3 {
		t.Fatalf("len=%d expired=%d, want all pre-existing connections wheel-expired",
			ct.Len(), ct.Expired)
	}
}

// TestWheelDisableStopsTimers: turning the wheel off leaves removal to
// lookups and sweeps again, with no timer firing afterward.
func TestWheelDisableStopsTimers(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Timeouts.SynSent = 10 * sim.Millisecond
	ct.EnableWheelExpiry(true)
	fillConns(ct, 1, 2)
	ct.EnableWheelExpiry(false)

	eng.RunUntil(30 * sim.Millisecond)
	if ct.Len() != 2 {
		t.Fatalf("len = %d with wheel off, want 2 (expiry back to lazy)", ct.Len())
	}
	if n := ct.Sweep(); n != 2 {
		t.Fatalf("sweep removed %d, want 2", n)
	}
}

// liveConns returns every connection on the expiry lists with its deadline.
func liveConns(ct *Table) map[*Conn]sim.Time {
	m := map[*Conn]sim.Time{}
	for i := range ct.exp {
		for r := ct.exp[i].head; r != 0; r = ct.conn(r).links[onExpiry].next {
			m[ct.conn(r)] = ct.conn(r).expires
		}
	}
	return m
}

// checkExpiry is the expiry oracle. It requires every list to be well
// linked, to hold connections naming it whose deadlines never decrease and
// were set no later than now, and the lists together to hold every live
// connection, once. With the wheel on, no live connection may be past its
// deadline and each non-empty list's timer must be armed at or before its
// head's deadline; with it off, no timer may be armed. The ledger
// Created == Len + Expired + EarlyDrops + Evicted holds throughout.
func checkExpiry(t testing.TB, ct *Table, step int) {
	t.Helper()
	now, n := ct.eng.Now(), 0
	for i := range ct.exp {
		l := &ct.exp[i]
		var prev ref
		for r := l.head; r != 0; prev, r = r, ct.conn(r).links[onExpiry].next {
			n++
			c := ct.conn(r)
			switch {
			case c.self != r || c.links[onExpiry].prev != prev || c.exp != uint8(i):
				t.Fatalf("step %d: list %d badly linked at %s", step, i, c.Orig)
			case prev != 0 && c.expires < ct.conn(prev).expires:
				t.Fatalf("step %d: list %d: deadline %v after %v", step, i, c.expires, ct.conn(prev).expires)
			case c.expires-l.d > now:
				t.Fatalf("step %d: list %d (timeout %v) holds deadline %v at %v", step, i, l.d, c.expires, now)
			case ct.wheel && c.expires <= now:
				t.Fatalf("step %d: %s live at %v, past its deadline %v", step, c.Orig, now, c.expires)
			}
		}
		if l.tail != prev {
			t.Fatalf("step %d: list %d tail is not its last connection", step, i)
		}
		at, armed := l.timer.When()
		if ct.wheel && l.head != 0 && (!armed || at > ct.conn(l.head).expires) {
			t.Fatalf("step %d: list %d head due %v, timer armed=%v at %v", step, i, ct.conn(l.head).expires, armed, at)
		}
		if !ct.wheel && armed {
			t.Fatalf("step %d: list %d timer armed with the wheel off", step, i)
		}
	}
	if n != ct.Len() {
		t.Fatalf("step %d: lists hold %d connections, Len %d", step, n, ct.Len())
	}
	if ct.Created != uint64(ct.Len())+ct.Expired+ct.EarlyDrops+ct.Evicted {
		t.Fatalf("step %d: created %d != live %d + expired %d + early %d + evicted %d",
			step, ct.Created, ct.Len(), ct.Expired, ct.EarlyDrops, ct.Evicted)
	}
}

// checkExpiredExactly requires a step that only expires (virtual time
// passing, the wheel turned on) to have removed exactly the connections of
// before whose deadline has passed, and counted each as expired.
func checkExpiredExactly(t testing.TB, ct *Table, step int, before map[*Conn]sim.Time, expired uint64) {
	t.Helper()
	now, after, gone := ct.eng.Now(), liveConns(ct), uint64(0)
	for c, due := range before {
		if _, ok := after[c]; !ok {
			gone++
			if due > now {
				t.Fatalf("step %d: connection due %v removed by %v", step, due, now)
			}
		}
	}
	if ct.Expired-expired != gone {
		t.Fatalf("step %d: %d connections gone, %d counted expired", step, gone, ct.Expired-expired)
	}
}

// nthConn returns the k-th connection in expiry-list order.
func nthConn(ct *Table, k int) *Conn {
	for i := range ct.exp {
		for r := ct.exp[i].head; r != 0; r = ct.conn(r).links[onExpiry].next {
			if k == 0 {
				return ct.conn(r)
			}
			k--
		}
	}
	return nil
}

var expiryFlags = [6]uint8{hdr.TCPSyn, hdr.TCPSyn | hdr.TCPAck, hdr.TCPAck, hdr.TCPFin | hdr.TCPAck, hdr.TCPRst, hdr.TCPAck | hdr.TCPPsh}

func pktFor(tu Tuple, flags uint8) *packet.Packet {
	if tu.Proto == hdr.IPProtoUDP {
		return udpPkt(tu.SrcIP, tu.DstIP, tu.SrcPort, tu.DstPort)
	}
	return tcpPkt(tu.SrcIP, tu.DstIP, tu.SrcPort, tu.DstPort, flags)
}

// runExpiryOps replays an op stream (four bytes per op: opcode, a, b, x)
// of packets through Process — fresh tuples from the index tests' small
// space, committed plain, with a fixed translation or from a two-port SNAT
// range, or not at all, and packets in either direction of a live
// connection — with virtual time passing in 1 ms ticks, timeouts of 1 to
// 16 ms reassigned, ladder and hard zone limits set, and the wheel turned
// on and off, checking the oracle after every step and tick. Every
// deadline is a whole millisecond, so a tick that removes a connection
// removes it at its deadline's instant. It returns the number of expiry
// lists the table made and of distinct timeouts the stream used.
func runExpiryOps(t testing.TB, ops []byte) (lists, timeouts int) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Timeouts = Timeouts{SynSent: 3 * sim.Millisecond, Established: 8 * sim.Millisecond,
		UDP: 5 * sim.Millisecond, Fin: 2 * sim.Millisecond}
	ct.EnableWheelExpiry(true)
	used := map[sim.Time]bool{}
	for step := 0; step+3 < len(ops); step += 4 {
		op, a, b, x := ops[step]%16, ops[step+1], ops[step+2], ops[step+3]
		switch {
		case op == 7: // let time pass, checking every tick
			for i := 0; i <= int(x%8); i++ {
				before, expired := liveConns(ct), ct.Expired
				eng.RunUntil(eng.Now() + sim.Millisecond)
				checkExpiredExactly(t, ct, step, before, expired)
				checkExpiry(t, ct, step)
			}
		case op == 8: // reassign the timeouts
			ms := func(v byte) sim.Time { return sim.Time(1+v%16) * sim.Millisecond }
			ct.Timeouts = Timeouts{SynSent: ms(a), Established: ms(a >> 4), UDP: ms(b), Fin: ms(b >> 4)}
		case op == 9: // zone limits: ladder, hard, or none
			zone := 1 + uint16(a&1)
			if a&2 != 0 {
				soft := 1 + int(b%4)
				ct.SetZoneLimits(zone, soft, soft+int(x%4))
			} else {
				ct.SetZoneLimit(zone, int(b%6))
			}
		case op == 10: // toggle the wheel
			before, expired := liveConns(ct), ct.Expired
			ct.EnableWheelExpiry(!ct.wheel)
			if ct.wheel {
				checkExpiredExactly(t, ct, step, before, expired)
			}
		default: // a packet
			zone, tu := opTuple(a, b)
			commit, nat := op < 4, NAT{}
			switch {
			case op == 2:
				nat = NAT{Kind: SNAT, Addr: natIP, PortLo: 40000, PortHi: 40001}
			case op == 3:
				nat = opNAT(x)
			case op >= 11 && ct.Len() > 0: // either direction of a live connection
				c := nthConn(ct, (int(a)<<8|int(b))%ct.Len())
				zone, tu = c.Zone, c.Orig
				if x&0x80 != 0 {
					tu = ct.replyTuple(c)
				}
			}
			flags := expiryFlags[x%6]
			pre := ct.get(zone, &tu)
			reopen := pre != nil && pre.State == StateClosed && tu.Proto == hdr.IPProtoTCP && flags == hdr.TCPSyn
			lapsed := pre != nil && pre.expires <= eng.Now()
			expired := ct.Expired
			ct.Process(pktFor(tu, flags), zone, commit, nat)
			// A packet expires at most the connection it looks up: one past
			// its deadline (never with the wheel on), or a closed one a
			// fresh SYN reopens.
			if d := ct.Expired - expired; d > 1 || d == 1 && !reopen && !lapsed || lapsed && ct.wheel {
				t.Fatalf("step %d: packet expired %d (reopen=%v, lapsed=%v, wheel=%v)", step, d, reopen, lapsed, ct.wheel)
			}
		}
		checkExpiry(t, ct, step)
		for _, d := range []sim.Time{ct.Timeouts.SynSent, ct.Timeouts.Established, ct.Timeouts.UDP, ct.Timeouts.Fin} {
			used[d] = true
		}
	}
	return len(ct.exp), len(used)
}

// TestWheelExpiryMatchesDeadlines runs the expiry oracle over seeded op
// streams, long enough that timeouts outnumber lists: an emptied list is
// taken by a new timeout.
func TestWheelExpiryMatchesDeadlines(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		if lists, timeouts := runExpiryOps(t, randomIndexOps(seed, 3000)); lists >= timeouts {
			t.Fatalf("seed %d: %d lists for %d timeouts, none reused", seed, lists, timeouts)
		}
	}
}

func FuzzConnExpiryOps(f *testing.F) {
	f.Add(randomIndexOps(1, 64))
	f.Add(randomIndexOps(2, 512))
	// A loose pickup (established, 8 ms), a FIN at 2 ms cutting it to the
	// 2 ms FIN timeout, time passing past the FIN deadline.
	f.Add([]byte{0, 0x08, 0x01, 2, 7, 0, 0, 1, 0, 0x08, 0x01, 3, 7, 0, 0, 3})
	// The wheel off while the connection lapses, then on again.
	f.Add([]byte{0, 0x08, 0x01, 2, 10, 0, 0, 0, 7, 0, 0, 7, 7, 0, 0, 7, 10, 0, 0, 0, 7, 0, 0, 0})
	// Timeouts reassigned between two refreshes of one connection.
	f.Add([]byte{0, 0x08, 0x01, 2, 8, 0x4f, 0x1e, 0, 11, 0, 0, 2, 7, 0, 0, 7, 7, 0, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) { runExpiryOps(t, ops) })
}
