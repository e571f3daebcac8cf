package conntrack

// Graceful degradation under connection-table pressure.
//
// The original tracker had one failure mode: at the per-zone limit every
// commit was refused, so a SYN flood that filled the table also locked out
// legitimate new connections until something expired. This file replaces
// that cliff with a ladder, modeled on what production OVS deployments
// layer on top of ct() (early-expiry of embryonic connections, zone
// limits, eviction policies):
//
//	count < soft          admit normally
//	soft <= count < hard  admit, but shed the oldest embryonic
//	                      (SYN_SENT-class) connection first — the
//	                      SYN-flood valve: attack state is recycled,
//	                      established connections never touched
//	count >= hard         emergency-evict the oldest closing-state
//	                      connection, else the oldest embryonic one, and
//	                      admit; only if every connection in the zone is
//	                      established is the commit refused (LimitHits)
//
// SetZoneLimit is the paper's Section 2.1.1 per-zone hard limit with exact
// hard-reject semantics (it is what TestZoneLimit and the fig8 pipeline
// rely on); SetZoneLimits opts a zone into the ladder. A conntrack-pressure
// fault window (faultinject) clamps the effective limit via SetPressure,
// forcing the ladder on.

// connClass buckets states for the per-zone recency lists.
type connClass uint8

const (
	classEmbryonic   connClass = iota // New, SynSent, SynRecv
	classEstablished                  // Established
	classClosing                      // FinWait, Closed
	numClasses
)

func classOf(s State) connClass {
	switch s {
	case StateEstablished:
		return classEstablished
	case StateFinWait, StateClosed:
		return classClosing
	default:
		return classEmbryonic
	}
}

// connList is an intrusive doubly-linked list ordered by recency: head is
// the least recently touched connection (the eviction candidate).
type connList struct {
	head, tail *Conn
}

func (l *connList) pushBack(c *Conn) {
	c.prev = l.tail
	c.next = nil
	if l.tail != nil {
		l.tail.next = c
	} else {
		l.head = c
	}
	l.tail = c
}

func (l *connList) remove(c *Conn) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		l.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		l.tail = c.prev
	}
	c.prev, c.next = nil, nil
}

// zoneState tracks one zone's occupancy, limits, and recency lists.
type zoneState struct {
	count int
	// Hard-reject limit (SetZoneLimit) or ladder limits (SetZoneLimits).
	soft, hard int
	ladder     bool
	// pressure is a fault-window clamp on the effective hard limit
	// (0 = none); it forces the ladder on so clamped zones degrade
	// instead of hard-failing.
	pressure int
	lists    [numClasses]connList
}

// effective resolves the zone's working limits under any pressure clamp.
func (zs *zoneState) effective() (soft, hard int, ladder bool) {
	soft, hard, ladder = zs.soft, zs.hard, zs.ladder
	if zs.pressure > 0 && (hard <= 0 || zs.pressure < hard) {
		hard = zs.pressure
		ladder = true
	}
	if hard > 0 && (soft <= 0 || soft > hard) {
		soft = hard
	}
	return soft, hard, ladder
}

func (t *Table) zone(z uint16) *zoneState {
	zs := t.zones[z]
	if zs == nil {
		zs = &zoneState{}
		t.zones[z] = zs
	}
	return zs
}

// SetZoneLimit caps concurrent connections in zone (0 removes the cap)
// with hard-reject behavior: at the limit every commit is
// refused and counted in LimitHits — the per-zone connection limiting
// feature of Section 2.1.1.
func (t *Table) SetZoneLimit(zone uint16, limit int) {
	zs := t.zone(zone)
	if limit <= 0 {
		zs.soft, zs.hard, zs.ladder = 0, 0, false
		return
	}
	zs.soft, zs.hard, zs.ladder = limit, limit, false
}

// SetZoneLimits opts the zone into the graceful-degradation ladder with a
// soft and hard limit (soft <= hard; 0,0 removes both). Between soft and
// hard, commits shed the oldest embryonic connection; at hard, the oldest
// closing or embryonic connection is emergency-evicted to make room, and
// only an all-established zone refuses the commit.
func (t *Table) SetZoneLimits(zone uint16, soft, hard int) {
	zs := t.zone(zone)
	if hard <= 0 {
		zs.soft, zs.hard, zs.ladder = 0, 0, false
		return
	}
	if soft <= 0 || soft > hard {
		soft = hard
	}
	zs.soft, zs.hard, zs.ladder = soft, hard, true
}

// SetPressure clamps the zone's effective hard limit to n (0 lifts the
// clamp). Driven by faultinject's conntrack-pressure windows.
func (t *Table) SetPressure(zone uint16, n int) {
	t.zone(zone).pressure = n
}

// touch moves the connection to the back of its (possibly new) class list
// after the state machine ran, keeping each list LRU-ordered.
func (t *Table) touch(c *Conn) {
	cl := classOf(c.State)
	c.zs.lists[c.class].remove(c)
	c.class = cl
	c.zs.lists[cl].pushBack(c)
}

// admit decides whether a commit may proceed, running the degradation
// ladder. It may remove a victim connection to make room; it reports false
// only when the zone is at its hard limit with no evictable victim (or the
// zone uses the hard-reject limit).
func (t *Table) admit(zs *zoneState) bool {
	soft, hard, ladder := zs.effective()
	if hard <= 0 {
		return true
	}
	if zs.count >= hard {
		if ladder {
			if v := zs.lists[classClosing].head; v != nil {
				t.removeConn(v)
				t.Evicted++
				return true
			}
			if v := zs.lists[classEmbryonic].head; v != nil {
				t.removeConn(v)
				t.Evicted++
				return true
			}
		}
		t.LimitHits++
		return false
	}
	if ladder && zs.count >= soft {
		// Soft band: admit, but shed the oldest embryonic connection
		// so SYN-flood state recycles instead of accumulating.
		if v := zs.lists[classEmbryonic].head; v != nil {
			t.removeConn(v)
			t.EarlyDrops++
		}
	}
	return true
}
