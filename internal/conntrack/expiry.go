package conntrack

import "ovsxdp/internal/sim"

// Expiry lists, the OVS userspace tracker's exp_lists. Every connection sits
// on the FIFO of the timeout duration its last refresh used — the
// c.expires - now of install or of the latest touch — and a refresh moves it
// to the tail of its new duration's list. Refreshes happen at
// non-decreasing virtual times, so deadlines never decrease along a list
// and each list's head is the next of its connections to expire. A
// Timeouts value reassigned mid-run is a new duration with a list of its
// own, so the order holds across reassignment, and a refresh that shortens
// the timeout (a FIN or RST on an established connection) moves the
// connection onto a list that is due sooner.
//
// The lists are kept whether or not wheel expiry is on; off, a connection
// past its deadline goes on lookup or Sweep. On, each non-empty list has
// one sim.Timer armed at or before its head's deadline; when it fires it
// removes every head whose deadline has passed and re-arms at the next
// head's. Expiry work scales with expirations, each connection goes at its
// own deadline, and a connection costs its record and its index slots —
// the table pays one timer per list, not one per connection.
//
// Wheel expiry is opt-in (scenarios enable it) because arming timers
// consumes engine sequence numbers: enabling it by default would shift
// event ordering in every existing experiment and break byte-identity of
// their output.

// expList is the FIFO, through link onExpiry, of the connections whose last
// refresh used timeout d.
type expList struct {
	connList
	d     sim.Time
	timer *sim.Timer
}

// EnableWheelExpiry turns timer-wheel expiry on or off. Enabling sweeps —
// a timer cannot be armed in the past — then arms one timer per non-empty
// list, in list order; disabling stops the timers.
func (t *Table) EnableWheelExpiry(on bool) {
	if on == t.wheel {
		return
	}
	t.wheel = on
	if on {
		t.Sweep()
	}
	for i := range t.exp {
		t.arm(&t.exp[i])
	}
}

// pushExp appends c to the tail of the list for its timeout, arming the
// list's timer if it is idle or due after c.
func (t *Table) pushExp(c *Conn) {
	d := c.expires - t.eng.Now()
	if int(c.exp) >= len(t.exp) || t.exp[c.exp].d != d {
		c.exp = t.expListFor(d)
	}
	l := &t.exp[c.exp]
	l.pushBack(t, c, onExpiry)
	if at, armed := l.timer.When(); t.wheel && (!armed || at > c.expires) {
		l.timer.ScheduleAt(c.expires)
	}
}

// expListFor returns the index of the list for timeout d, giving d an empty
// list, or a new one, if no list has it. A connection names its list in
// one byte, so at most 256 timeouts can be in use at once.
func (t *Table) expListFor(d sim.Time) uint8 {
	free := -1
	for i := range t.exp {
		if t.exp[i].d == d {
			return uint8(i)
		}
		if free < 0 && t.exp[i].head == 0 {
			free = i
		}
	}
	if free < 0 {
		if len(t.exp) > 255 {
			panic("conntrack: more than 256 timeouts in use at once")
		}
		free = len(t.exp)
		t.exp = append(t.exp, expList{timer: t.eng.NewTimer(func() { t.expire(free) })})
	}
	t.exp[free].d = d
	return uint8(free)
}

// expire is list i's timer: it removes the heads whose deadline has passed
// and re-arms at the next head's.
func (t *Table) expire(i int) {
	l := &t.exp[i]
	t.reap(l)
	t.arm(l)
}

// reap removes the connections at the head of l whose deadline has passed.
func (t *Table) reap(l *expList) {
	for l.head != 0 && t.conn(l.head).expires <= t.eng.Now() {
		t.removeConn(t.conn(l.head))
		t.Expired++
	}
}

// arm arms l's timer at its head's deadline while the wheel is on and l
// holds a connection, and stops it otherwise.
func (t *Table) arm(l *expList) {
	if t.wheel && l.head != 0 {
		l.timer.ScheduleAt(t.conn(l.head).expires)
	} else {
		l.timer.Stop()
	}
}
