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
// rely on); SetZoneLimits opts a zone into the ladder.

// connClass buckets states for the per-zone recency lists.
type connClass uint8

const (
	classEmbryonic   connClass = iota // New, SynSent, SynRecv
	classEstablished                  // Established
	classClosing                      // FinWait, Closed
	numClasses
)

// stateClass is each state's class; the states it does not name are
// embryonic.
var stateClass = [...]connClass{StateEstablished: classEstablished, StateFinWait: classClosing, StateClosed: classClosing}

func classOf(s State) connClass { return stateClass[s] }

// zoneState tracks one zone's occupancy, limits, and recency lists, one per
// class: each list's head is its least recently touched connection (the
// eviction candidate).
type zoneState struct {
	count int
	// Hard-reject limit (SetZoneLimit) or ladder limits (SetZoneLimits);
	// both setters keep 0 < soft <= hard, or all zero.
	soft, hard int
	ladder     bool
	lists      [numClasses]connList // through link onZone
	zi         uint16               // index in Table.zoneList
}

func (t *Table) zone(z uint16) *zoneState {
	zs := t.zones[z]
	if zs == nil {
		zs = &zoneState{zi: uint16(len(t.zoneList))}
		t.zones[z] = zs
		t.zoneList = append(t.zoneList, zs)
	}
	return zs
}

// SetZoneLimit caps concurrent connections in zone (0 removes the cap)
// with hard-reject behavior: at the limit every commit is
// refused and counted in LimitHits — the per-zone connection limiting
// feature of Section 2.1.1.
func (t *Table) SetZoneLimit(zone uint16, limit int) {
	zs := t.zone(zone)
	limit = max(limit, 0)
	zs.soft, zs.hard, zs.ladder = limit, limit, false
}

// SetZoneLimits opts the zone into the graceful-degradation ladder with a
// soft and hard limit (soft <= hard; 0,0 removes both). Between soft and
// hard, commits shed the oldest embryonic connection; at hard, the oldest
// closing or embryonic connection is emergency-evicted to make room, and
// only an all-established zone refuses the commit.
func (t *Table) SetZoneLimits(zone uint16, soft, hard int) {
	zs := t.zone(zone)
	if soft <= 0 || soft > hard {
		soft = hard
	}
	zs.soft, zs.hard, zs.ladder = max(soft, 0), max(hard, 0), hard > 0
}

// touch moves the connection to the back of its (possibly new) class list
// after the state machine ran, keeping each list LRU-ordered, and to the
// back of the expiry list for the timeout the state machine set.
func (t *Table) touch(c *Conn) {
	zs := t.zoneList[c.zi]
	zs.lists[c.class].remove(t, c, onZone)
	c.class = classOf(c.State)
	zs.lists[c.class].pushBack(t, c, onZone)
	t.exp[c.exp].remove(t, c, onExpiry)
	t.pushExp(c)
}

// admit decides whether a commit may proceed, running the degradation
// ladder. It may remove a victim connection to make room; it reports false
// only when the zone is at its hard limit with no evictable victim (or the
// zone uses the hard-reject limit).
func (t *Table) admit(zs *zoneState) bool {
	if zs.hard <= 0 {
		return true
	}
	if zs.count >= zs.hard {
		for _, cl := range [...]connClass{classClosing, classEmbryonic} {
			if v := zs.lists[cl].head; v != 0 && zs.ladder {
				t.removeConn(t.conn(v))
				t.Evicted++
				return true
			}
		}
		t.LimitHits++
		return false
	}
	// Soft band: admit, but shed the oldest embryonic connection so
	// SYN-flood state recycles instead of accumulating.
	if v := zs.lists[classEmbryonic].head; zs.ladder && zs.count >= zs.soft && v != 0 {
		t.removeConn(t.conn(v))
		t.EarlyDrops++
	}
	return true
}
