// Package conntrack implements the userspace connection tracker OVS needed
// once the datapath left the kernel: Section 4 notes NSX depends on
// "connection tracking for firewalling in the kernel's netfilter subsystem"
// and that OVS "uses its own userspace implementations of these features".
//
// The tracker follows the OVS/netfilter model: connections are keyed by
// 5-tuple within a zone (zones keep different virtual networks' flows
// separate), carry a TCP state machine, support SNAT/DNAT with real header
// rewriting, and enforce per-zone connection limits — the feature whose
// kernel/out-of-tree double implementation Section 2.1.1 uses as a case
// study.
//
// The table is sharded (shard.go) the way the kernel's nf_conntrack hash
// is bucket-locked, records are free-listed and wait for expiry on one FIFO
// per timeout, which the engine timer wheel can drain (expiry.go), per-zone
// limits degrade gracefully under pressure instead of hard-failing
// (degrade.go), and SNAT can draw ports from an allocator whose exhaustion
// path is deterministic (natpool.go).
package conntrack

import (
	"encoding/binary"
	"fmt"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// Tuple is a unidirectional 5-tuple.
type Tuple struct {
	SrcIP   hdr.IP4
	DstIP   hdr.IP4
	Proto   hdr.IPProto
	SrcPort uint16
	DstPort uint16
}

// Reverse returns the reply-direction tuple.
func (t Tuple) Reverse() Tuple {
	return Tuple{SrcIP: t.DstIP, DstIP: t.SrcIP, Proto: t.Proto, SrcPort: t.DstPort, DstPort: t.SrcPort}
}

// String formats the tuple for diagnostics.
func (t Tuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%s", t.SrcIP, t.SrcPort, t.DstIP, t.DstPort, t.Proto)
}

// State is the connection's protocol state.
type State uint8

// Connection states (a condensed netfilter TCP state machine plus the
// two-step UDP/ICMP model).
const (
	StateNew State = iota
	StateSynSent
	StateSynRecv
	StateEstablished
	StateFinWait
	StateClosed
)

var stateNames = [...]string{"new", "syn-sent", "syn-recv", "established", "fin-wait", "closed"}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "?"
}

// Default timeouts per state, in virtual time. They are compressed relative
// to real netfilter defaults so simulations can exercise expiry without
// hours of virtual time; the ordering (established >> transient) is
// preserved.
const (
	TimeoutSynSent     = 30 * sim.Second
	TimeoutEstablished = 600 * sim.Second
	TimeoutUDP         = 60 * sim.Second
	TimeoutFin         = 10 * sim.Second
)

// Timeouts holds the per-state-class expiry intervals. Scenarios compress
// them further (connscale uses millisecond-scale timeouts to cycle a
// million connections inside one measurement window).
type Timeouts struct {
	SynSent, Established, UDP, Fin sim.Time
}

// DefaultTimeouts returns the package-constant intervals.
func DefaultTimeouts() Timeouts {
	return Timeouts{TimeoutSynSent, TimeoutEstablished, TimeoutUDP, TimeoutFin}
}

// NAT describes a translation to apply at commit time.
type NAT struct {
	Addr hdr.IP4
	Port uint16 // 0 keeps the original port

	// PortLo/PortHi select dynamic allocation from [PortLo, PortHi]
	// (the ct(nat(src=ip:lo-hi)) form): commit draws a free port from
	// the pool and the connection holds it until removal. Both zero
	// means no range; Port is then used verbatim.
	PortLo, PortHi uint16

	// SNAT: rewrite source address/port on the original direction
	// (destination on replies). DNAT is the converse.
	Kind NATKind
}

// NATKind discriminates source vs destination translation.
type NATKind uint8

// NAT kinds.
const (
	NATNone NATKind = iota
	SNAT
	DNAT
)

// Conn is one tracked connection, a record in its table's slab. The fields
// every packet reads or writes, the list links the touch moves included,
// fill the first 48 bytes and the cold rest comes last: 56 bytes, none of
// them a pointer, so the collector never scans a connection. Records do not
// move, so a *Conn stays valid until the connection is removed.
type Conn struct {
	Zone    uint16
	class   connClass
	State   State
	Orig    Tuple
	exp     uint8  // index of the expiry list in Table.exp
	zi      uint16 // index of the zone in Table.zoneList
	expires sim.Time

	// links place the connection on its zone's recency list (degrade.go)
	// and its expiry list (expiry.go). The recency link doubles as the
	// free-list link when the record is recycled.
	links [numLinks]link
	nat   uint32 // index of the translation in Table.nats, 0 for none
	self  ref    // the record's own ref
}

// ref names a record in a table's slab; 0 names none.
type ref uint32

// The slab grows by chunks of chunkSize records, which never move.
const chunkBits, chunkSize = 10, 1 << chunkBits

// conn returns the record r names.
func (t *Table) conn(r ref) *Conn { return &t.slab[r>>chunkBits][r&(chunkSize-1)] }

// The lists a connection is on, one link each.
const (
	onZone = iota
	onExpiry
	numLinks
)

// link is a connection's place on one connList.
type link struct{ prev, next ref }

// connList is an intrusive doubly-linked FIFO of connections through link
// k of each: pushBack appends, so the head is the one appended longest ago.
type connList struct {
	head, tail ref
}

func (l *connList) pushBack(t *Table, c *Conn, k int) {
	c.links[k] = link{prev: l.tail}
	if l.tail != 0 {
		t.conn(l.tail).links[k].next = c.self
	} else {
		l.head = c.self
	}
	l.tail = c.self
}

func (l *connList) remove(t *Table, c *Conn, k int) {
	lk := &c.links[k]
	if lk.prev != 0 {
		t.conn(lk.prev).links[k].next = lk.next
	} else {
		l.head = lk.next
	}
	if lk.next != 0 {
		t.conn(lk.next).links[k].prev = lk.prev
	} else {
		l.tail = lk.prev
	}
	*lk = link{}
}

// Table is the connection table.
type Table struct {
	eng      *sim.Engine
	shards   []ctShard
	slab     [][]Conn // the records, by ref
	recs     ref      // refs handed out so far, record 0 included
	free     ref      // recycled records, linked through their recency link
	zones    map[uint16]*zoneState
	zoneList []*zoneState   // by Conn.zi
	nats     []natRec       // by Conn.nat; record 0 names none
	natFree  uint32         // recycled NAT records, linked through their pool field
	pools    map[NAT]uint32 // 1 + index in poolList of the pool of a kind, address and range
	poolList []natPool      // by natRec.pool - 1
	live     int
	exp      []expList // expiry.go
	wheel    bool

	// Loose enables mid-stream TCP pickup (nf_conntrack_tcp_loose,
	// enabled by default in Linux): a non-SYN packet with no known
	// connection creates one in the established state instead of being
	// marked invalid.
	Loose bool

	// Timeouts are the per-state expiry intervals (DefaultTimeouts
	// unless a scenario compresses them).
	Timeouts Timeouts

	// Stats. Every removal increments exactly one of Expired,
	// EarlyDrops, or Evicted, so at any instant
	// Created == Len() + Expired + EarlyDrops + Evicted.
	Created   uint64
	Expired   uint64
	LimitHits uint64 // commits refused at the hard limit (table-full drops)
	// Degradation-ladder counters (degrade.go).
	EarlyDrops uint64 // embryonic connections shed in the soft band
	Evicted    uint64 // LRU emergency evictions at the hard limit / NAT pool
	// NAT port allocator counters (natpool.go).
	NATExhausted     uint64 // commits refused with every port in the range held
	NATPortEvictions uint64 // of Evicted: evictions made to free a NAT port
	// RelatedICMP counts ICMP errors mapped back to an existing
	// connection (icmp.go).
	RelatedICMP uint64
}

// NewTable builds an empty table on the engine's clock.
func NewTable(eng *sim.Engine) *Table {
	t := &Table{
		eng:      eng,
		zones:    make(map[uint16]*zoneState),
		nats:     make([]natRec, 1),
		pools:    make(map[NAT]uint32),
		Loose:    true,
		Timeouts: DefaultTimeouts(),
	}
	t.initShards(DefaultShards)
	return t
}

// Len returns the number of live connections (expired entries may linger
// until touched or swept unless wheel expiry is on).
func (t *Table) Len() int { return t.live }

// ZoneCount returns live connections in a zone.
func (t *Table) ZoneCount(zone uint16) int {
	if zs := t.zones[zone]; zs != nil {
		return zs.count
	}
	return 0
}

// TupleOf extracts the conntrack tuple from an IPv4 packet, reporting false
// for non-IPv4, fragmented-beyond-first, or ICMP-error packets (the latter
// are matched through their embedded tuple, not a tuple of their own).
func TupleOf(p *packet.Packet) (Tuple, bool) {
	tu, _, icmpErr, ok := extract(p)
	return tu, ok && !icmpErr
}

// extract reads the 5-tuple and TCP flags out of an IPv4 frame in one pass
// over fixed offsets, accepting exactly the frames the hdr.Parse* chain
// accepts (the tests keep that chain as the reference) without building its
// header structs. icmpErr reports an ICMP error message (destination
// unreachable, time exceeded, ...) that carries an embedded tuple instead.
// A frame rejected after its IPv4 header leaves the addresses in tu.
func extract(p *packet.Packet) (tu Tuple, tcpFlags uint8, icmpErr bool, ok bool) {
	be := binary.BigEndian
	d, l3 := p.Data, hdr.EthernetSize
	if len(d) >= l3+hdr.VLANSize && hdr.EtherType(be.Uint16(d[12:14])) == hdr.EtherTypeVLAN {
		l3 += hdr.VLANSize
	}
	// The ethertype is the two bytes before L3, tagged or not.
	if len(d) < l3+hdr.IPv4MinSize || hdr.EtherType(be.Uint16(d[l3-2:l3])) != hdr.EtherTypeIPv4 {
		return
	}
	ip := d[l3:]
	ihl := int(ip[0]&0x0f) * 4
	if ip[0]>>4 != 4 || ihl < hdr.IPv4MinSize || len(ip) < ihl ||
		int(be.Uint16(ip[2:4])) < ihl || // total length must cover the header
		be.Uint16(ip[6:8])&0x1fff != 0 { // later fragment: no L4 header
		return
	}
	tu.SrcIP, tu.DstIP, tu.Proto = hdr.IP4(be.Uint32(ip[12:16])), hdr.IP4(be.Uint32(ip[16:20])), hdr.IPProto(ip[9])
	l4 := ip[ihl:]
	switch tu.Proto {
	case hdr.IPProtoTCP:
		if len(l4) < hdr.TCPMinSize || l4[12]>>4 < hdr.TCPMinSize/4 || len(l4) < int(l4[12]>>4)*4 {
			return
		}
		tcpFlags = l4[13] & 0x3f
	case hdr.IPProtoUDP:
		if len(l4) < hdr.UDPSize || be.Uint16(l4[4:6]) < hdr.UDPSize {
			return
		}
	case hdr.IPProtoICMP:
		if len(l4) < hdr.ICMPSize {
			return
		}
		if icmpErrorType(l4[0]) {
			return tu, 0, true, true
		}
		// An echo's identifier stands in for both ports.
		tu.SrcPort, tu.DstPort = be.Uint16(l4[4:6]), be.Uint16(l4[4:6])
		return tu, 0, false, true
	default:
		return
	}
	tu.SrcPort, tu.DstPort = be.Uint16(l4[0:2]), be.Uint16(l4[2:4])
	return tu, tcpFlags, false, true
}

// Process runs the packet through the tracker in the given zone: the ct()
// datapath action. It sets the packet's conntrack metadata (CtState,
// CtZone; a packet carries no connection mark). With commit
// set, a new connection is installed (subject to the zone limit ladder);
// without it, new connections are only classified, as in OVS where commit
// happens on the firewall's allow rule.
func (t *Table) Process(p *packet.Packet, zone uint16, commit bool, nat NAT) {
	p.CtZone = zone
	tu, tcpFlags, icmpErr, ok := extract(p)
	if !ok {
		p.CtState = packet.CtTracked | packet.CtInvalid
		return
	}
	if icmpErr {
		t.processICMPError(p, zone)
		return
	}
	now := t.eng.Now()

	c := t.lookup(zone, &tu)
	if c != nil && c.State == StateClosed && c.Orig.Proto == hdr.IPProtoTCP &&
		tcpFlags&hdr.TCPSyn != 0 && tcpFlags&(hdr.TCPAck|hdr.TCPRst|hdr.TCPFin) == 0 {
		// A fresh SYN over a closed (RST'd) connection reopens it, the
		// netfilter TIME_WAIT-reuse behavior: retire the stale record and
		// let the SYN start a new connection below.
		t.removeConn(c)
		t.Expired++
		c = nil
	}
	if c != nil {
		reply := c.Orig != tu
		t.advance(c, tcpFlags, reply, now)
		t.touch(c)
		p.CtState = packet.CtTracked
		switch c.State {
		case StateEstablished, StateFinWait:
			p.CtState |= packet.CtEstablished
		case StateSynSent, StateSynRecv, StateNew:
			if reply {
				p.CtState |= packet.CtEstablished
			} else {
				p.CtState |= packet.CtNew
			}
		case StateClosed:
			p.CtState |= packet.CtInvalid
		}
		if reply {
			p.CtState |= packet.CtReply
		}
		t.applyNAT(p, c, reply)
		return
	}

	// New connection.
	p.CtState = packet.CtTracked | packet.CtNew
	midstream := tu.Proto == hdr.IPProtoTCP && tcpFlags&hdr.TCPSyn == 0
	if midstream && !t.Loose {
		// Mid-stream packet with no connection: invalid.
		p.CtState = packet.CtTracked | packet.CtInvalid
		return
	}
	if midstream {
		// Loose pickup adopts the flow as already established.
		p.CtState = packet.CtTracked | packet.CtEstablished
	}
	if !commit {
		return
	}
	zs := t.zone(zone)
	if !t.admit(zs) {
		p.CtState = packet.CtTracked | packet.CtInvalid
		return
	}
	c = t.allocConn()
	c.Zone, c.Orig, c.State = zone, tu, StateNew
	if t.setNAT(c, nat); c.nat != 0 && nat.PortLo != 0 && !t.allocNATPort(c) {
		t.freeConn(c)
		p.CtState = packet.CtTracked | packet.CtInvalid
		return
	}
	switch {
	case midstream:
		c.State = StateEstablished
		c.expires = now + t.Timeouts.Established
	case tu.Proto == hdr.IPProtoTCP:
		c.State = StateSynSent
		c.expires = now + t.Timeouts.SynSent
	default:
		c.expires = now + t.Timeouts.UDP
	}
	c.zi = zs.zi
	c.class = classOf(c.State)
	t.install(c)
	t.Created++
	t.applyNAT(p, c, false)
}

// lookup finds the connection for tuple in zone, in either direction,
// dropping it if expired; nil on a miss.
func (t *Table) lookup(zone uint16, tu *Tuple) *Conn {
	c := t.get(zone, tu)
	if c != nil && t.eng.Now() >= c.expires {
		t.removeConn(c)
		t.Expired++
		return nil
	}
	return c
}

// Find returns the connection for a tuple in a zone (diagnostics, tests).
// It runs no state machine and counts no packet, but like a packet's lookup
// it removes a connection past its deadline, counted in Expired, and reports
// a miss.
func (t *Table) Find(zone uint16, tu Tuple) (*Conn, bool) {
	c := t.lookup(zone, &tu)
	return c, c != nil
}

// advance runs the TCP (or UDP/ICMP) state machine for one packet.
func (t *Table) advance(c *Conn, tcpFlags uint8, reply bool, now sim.Time) {
	if c.Orig.Proto != hdr.IPProtoTCP {
		// UDP/ICMP: a reply establishes.
		if reply && c.State != StateEstablished {
			c.State = StateEstablished
		}
		c.expires = now + t.Timeouts.UDP
		return
	}
	switch {
	case tcpFlags&hdr.TCPRst != 0:
		c.State = StateClosed
		c.expires = now + t.Timeouts.Fin
	case tcpFlags&hdr.TCPFin != 0:
		if c.State != StateClosed {
			c.State = StateFinWait
		}
		c.expires = now + t.Timeouts.Fin
	case c.State == StateSynSent && reply && tcpFlags&hdr.TCPSyn != 0 && tcpFlags&hdr.TCPAck != 0:
		c.State = StateSynRecv
		c.expires = now + t.Timeouts.SynSent
	case c.State == StateSynRecv && !reply && tcpFlags&hdr.TCPAck != 0:
		c.State = StateEstablished
		c.expires = now + t.Timeouts.Established
	case c.State == StateEstablished:
		// Includes a retransmitted SYN on an established connection:
		// it refreshes the timeout but must not reset the state.
		c.expires = now + t.Timeouts.Established
	case c.State == StateFinWait || c.State == StateClosed:
		// Closing states keep the short timeout: the stray ACKs of a
		// simultaneous close must not pin the record for the SYN
		// timeout.
		c.expires = now + t.Timeouts.Fin
	default:
		c.expires = now + t.Timeouts.SynSent
	}
}

// natAddr rewrites the IPv4 address the connection's translation changes
// in p and returns the header's bytes, the rewritten header, whether the
// source side changed and the port that side takes; ok is false when there
// is nothing to rewrite. An ICMP error takes the address alone: the L4
// inside it is the quoted original packet, and the outer ICMP has no ports.
func (t *Table) natAddr(p *packet.Packet, c *Conn, reply bool) (ipRaw []byte, ip hdr.IPv4, rewriteSrc bool, newPort uint16, ok bool) {
	if c.nat == 0 {
		return
	}
	nat := &t.nats[c.nat].NAT
	eth, err := hdr.ParseEthernet(p.Data)
	if err != nil || eth.Type != hdr.EtherTypeIPv4 {
		return
	}
	ipRaw = p.Data[eth.HeaderLen:]
	if ip, err = hdr.ParseIPv4(ipRaw); err != nil {
		return
	}

	// Forward direction applies the translation; the reply direction
	// undoes it, restoring the original endpoint.
	var newAddr hdr.IP4
	switch {
	case nat.Kind == SNAT && !reply:
		rewriteSrc, newAddr, newPort = true, nat.Addr, nat.Port
	case nat.Kind == SNAT && reply:
		rewriteSrc, newAddr, newPort = false, c.Orig.SrcIP, c.Orig.SrcPort
	case nat.Kind == DNAT && !reply:
		rewriteSrc, newAddr, newPort = false, nat.Addr, nat.Port
	default: // DNAT reply
		rewriteSrc, newAddr, newPort = true, c.Orig.DstIP, c.Orig.DstPort
	}
	if rewriteSrc {
		ip.Src = newAddr
	} else {
		ip.Dst = newAddr
	}
	ip.SerializeTo(ipRaw)
	return ipRaw, ip, rewriteSrc, newPort, true
}

// applyNAT rewrites packet headers per the connection's translation,
// recomputing checksums — the real work OVS had to reimplement in
// userspace.
func (t *Table) applyNAT(p *packet.Packet, c *Conn, reply bool) {
	ipRaw, ip, rewriteSrc, newPort, ok := t.natAddr(p, c, reply)
	if !ok {
		return
	}
	l4 := ipRaw[ip.HeaderLen:]
	if newPort != 0 && (ip.Proto == hdr.IPProtoTCP || ip.Proto == hdr.IPProtoUDP) && len(l4) >= 4 {
		portOff := 2
		if rewriteSrc {
			portOff = 0
		}
		binary.BigEndian.PutUint16(l4[portOff:], newPort)
	}
	switch ip.Proto {
	case hdr.IPProtoTCP:
		if len(l4) >= hdr.TCPMinSize {
			hdr.PutTCPChecksum(ip.Src, ip.Dst, l4)
		}
	case hdr.IPProtoUDP:
		if len(l4) >= hdr.UDPSize {
			hdr.PutUDPChecksum(ip.Src, ip.Dst, l4)
		}
	}
}

// install indexes the connection under both directions and threads it onto
// its zone's recency list and its expiry list. The reply direction accounts
// for NAT: replies arrive addressed to the translated tuple.
func (t *Table) install(c *Conn) {
	t.index(c, &c.Orig, 0)
	if reply := t.replyTuple(c); reply != c.Orig {
		// A tuple that is its own reply is one key, held by the
		// original-direction slot.
		t.index(c, &reply, 1)
	}
	zs := t.zoneList[c.zi]
	zs.count++
	zs.lists[c.class].pushBack(t, c, onZone)
	t.pushExp(c)
	t.live++
}

// removeConn removes the connection's two keys from the index — by key, as
// the map it replaced did: a key a colliding install took over goes with it
// — unlinks it from its zone list and its expiry list, then recycles the
// record and its translation.
// The caller attributes the removal by bumping exactly one of the Expired,
// EarlyDrops, or Evicted counters.
func (t *Table) removeConn(c *Conn) {
	reply := t.replyTuple(c)
	t.unindex(c.Zone, &c.Orig)
	t.unindex(c.Zone, &reply)
	zs := t.zoneList[c.zi]
	zs.count--
	zs.lists[c.class].remove(t, c, onZone)
	t.exp[c.exp].remove(t, c, onExpiry)
	t.live--
	t.freeConn(c)
}

// allocConn takes a record off the free list, or the next record never
// handed out, adding a chunk to the slab when it is full.
func (t *Table) allocConn() *Conn {
	if r := t.free; r != 0 {
		c := t.conn(r)
		t.free = c.links[onZone].next
		c.links[onZone].next = 0
		return c
	}
	r := max(t.recs, 1) // record 0 is never handed out: ref 0 names none
	if int(r>>chunkBits) == len(t.slab) {
		if r >= 1<<31 { // an index slot holds a ref shifted left by one
			panic("conntrack: more than 2^31 connection records")
		}
		t.slab = append(t.slab, make([]Conn, chunkSize))
	}
	t.recs = r + 1
	c := t.conn(r)
	c.self = r
	return c
}

// freeConn resets a record and pushes it on the free list, releasing its
// translation and the NAT port that holds.
func (t *Table) freeConn(c *Conn) {
	if c.nat != 0 {
		nr := &t.nats[c.nat]
		if nr.pool != 0 {
			delete(t.poolList[nr.pool-1].inUse, nr.Port)
		}
		*nr = natRec{pool: t.natFree}
		t.natFree = c.nat
	}
	*c = Conn{self: c.self}
	c.links[onZone].next = t.free
	t.free = c.self
}

// replyTuple computes the tuple reply packets carry, after translation. NAT
// does not change after install, so neither does the reply key.
func (t *Table) replyTuple(c *Conn) Tuple {
	r := c.Orig.Reverse()
	if c.nat == 0 {
		return r
	}
	switch nat := &t.nats[c.nat].NAT; nat.Kind {
	case SNAT:
		r.DstIP = nat.Addr
		if nat.Port != 0 {
			r.DstPort = nat.Port
		}
	case DNAT:
		r.SrcIP = nat.Addr
		if nat.Port != 0 {
			r.SrcPort = nat.Port
		}
	}
	return r
}

// Sweep removes every connection past its deadline, from the heads of the
// expiry lists, and returns the count removed. With wheel expiry on it
// finds none: the timers remove each connection at its deadline.
func (t *Table) Sweep() int {
	n := t.Expired
	for i := range t.exp {
		t.reap(&t.exp[i])
	}
	return int(t.Expired - n)
}

// Counters is a snapshot of the tracker's global counters for stats
// surfaces (dpif.Stats, dpctl-stats).
type Counters struct {
	Conns            int
	Created          uint64
	Expired          uint64
	EarlyDrops       uint64
	Evicted          uint64
	TableFull        uint64
	NATExhausted     uint64
	NATPortEvictions uint64
	RelatedICMP      uint64
}

// Counters snapshots the global counters.
func (t *Table) Counters() Counters {
	return Counters{
		Conns:            t.live,
		Created:          t.Created,
		Expired:          t.Expired,
		EarlyDrops:       t.EarlyDrops,
		Evicted:          t.Evicted,
		TableFull:        t.LimitHits,
		NATExhausted:     t.NATExhausted,
		NATPortEvictions: t.NATPortEvictions,
		RelatedICMP:      t.RelatedICMP,
	}
}

// PressureRemovals returns early-drops plus evictions — the removals the
// datapath charges eviction cost for.
func (t *Table) PressureRemovals() uint64 { return t.EarlyDrops + t.Evicted }
