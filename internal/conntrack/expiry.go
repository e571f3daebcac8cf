package conntrack

import "sort"

// Timer-wheel expiry. The original tracker only reclaimed expired
// connections lazily (on lookup) or via Sweep's full linear scan — O(table)
// per sweep, the same cost profile the sweep revalidator had before the
// wheel revalidator (PR 7). With wheel expiry enabled, every connection
// carries a rearmable sim.Timer on the engine's slab-backed wheel:
//
//   - install arms the timer at the connection's deadline;
//   - the hot path only writes c.expires (no wheel traffic per packet);
//   - when the timer fires, a refreshed deadline just re-arms it (lazy
//     re-arm, the mintmr discipline), an elapsed one removes the record.
//
// Expiry work then scales with expirations, not table size, and a
// million-connection table costs one pending timer record per connection —
// no scans.
//
// Wheel expiry is opt-in (scenarios enable it) because arming timers
// consumes engine sequence numbers: enabling it by default would shift
// event ordering in every existing experiment and break byte-identity of
// their output. The default path — lookup-time expiry plus Sweep — is
// unchanged.

// EnableWheelExpiry turns timer-wheel expiry on or off. Enabling arms a
// timer for every live connection in sorted-key order so engine sequence
// allocation does not depend on where the index holds them; disabling
// stops all timers.
func (t *Table) EnableWheelExpiry(on bool) {
	if on == t.wheel {
		return
	}
	t.wheel = on
	if !on {
		t.eachConn(func(c *Conn) {
			if c.timer != nil {
				c.timer.Stop()
			}
		})
		return
	}
	// A connection lingering past its deadline is reclaimed now: a timer
	// cannot be armed in the past.
	t.Sweep()
	var conns []*Conn
	t.eachConn(func(c *Conn) { conns = append(conns, c) })
	sort.Slice(conns, func(i, j int) bool {
		if conns[i].Zone != conns[j].Zone {
			return conns[i].Zone < conns[j].Zone
		}
		return conns[i].Orig.less(conns[j].Orig)
	})
	for _, c := range conns {
		t.armTimer(c)
	}
}

// armTimer schedules the connection's expiry timer at its deadline,
// creating the timer (and its closure) at most once per record — recycled
// records keep their timer, so steady-state churn allocates nothing.
func (t *Table) armTimer(c *Conn) {
	if c.timer == nil {
		cc := c
		c.timer = t.eng.NewTimer(func() { t.timerFired(cc) })
	}
	c.timer.ScheduleAt(c.expires)
}

// timerFired handles a wheel expiry. The record is necessarily live:
// removal stops the timer and recycling keeps it stopped, so a fired timer
// always refers to the connection it was armed for.
func (t *Table) timerFired(c *Conn) {
	if t.eng.Now() < c.expires {
		// The deadline moved while the timer was pending (the hot path
		// refreshed c.expires): re-arm at the new deadline.
		c.timer.ScheduleAt(c.expires)
		return
	}
	t.removeConn(c)
	t.Expired++
}
