package conntrack

// natRec is a connection's translation, kept in Table.nats off the records
// of the connections that have none: most connections are committed without
// nat(...), and a record pays 4 bytes for the index instead of 24 for the
// state. Records hold no pointer and are free-listed like connections.
type natRec struct {
	NAT
	pool uint32 // 1 + index in Table.poolList of the pool NAT.Port is from; when free, the next free record
	seq  uint64 // the pool's allocation count when it handed out NAT.Port
}

// setNAT gives c, a fresh record, the translation nat, unless nat
// translates nothing.
func (t *Table) setNAT(c *Conn, nat NAT) {
	if nat.Kind == NATNone {
		return
	}
	if c.nat = t.natFree; c.nat == 0 {
		c.nat = uint32(len(t.nats))
		t.nats = append(t.nats, natRec{})
	}
	t.natFree = t.nats[c.nat].pool // a new record links to none
	t.nats[c.nat] = natRec{NAT: nat}
}

// NAT port allocation. A NAT with a PortLo..PortHi range draws each
// committed connection's translated port from a shared pool (one pool per
// {kind, address, range}), the ct(nat(src=ip:lo-hi)) form. The interesting
// design point is exhaustion: real deployments hit it constantly (one
// public IP is 64k ports), and the failure mode must be deterministic —
// never silent port reuse (which would cross-wire two connections'
// replies), never a panic. The ladder here mirrors the table's: evict the
// oldest non-established port holder to recycle its port (counted in both
// Evicted and NATPortEvictions); if every holder is established, refuse
// the commit (NATExhausted) — established connections keep their ports.

// natPool tracks one {kind, address, port-range}'s allocations.
type natPool struct {
	lo, hi uint16
	inUse  map[uint16]ref // the connection holding each port
	// rotor is the next-fit scan start: ports are handed out in
	// ascending wrap-around order, so allocation order is deterministic
	// and freed ports are not immediately reused (minimizing accidental
	// reply cross-wiring while a stale peer still holds table state).
	rotor uint16
	// allocs counts the ports handed out: a holder's natRec.seq orders
	// the eviction scan, oldest first.
	allocs uint64
}

// allocNATPort reserves a port for c from its NAT's pool, evicting the
// oldest non-established holder if the range is exhausted. It reports false
// (and counts NATExhausted) when every port is held by an established
// connection. c is not yet installed; on success its translation's Port
// and pool are set and release happens in freeConn.
func (t *Table) allocNATPort(c *Conn) bool {
	key := t.nats[c.nat].NAT
	key.Port = 0 // a pool is named by its kind, address and range
	id := t.pools[key]
	if id == 0 {
		t.poolList = append(t.poolList, natPool{lo: key.PortLo, hi: key.PortHi, inUse: make(map[uint16]ref), rotor: key.PortLo})
		id = uint32(len(t.poolList))
		t.pools[key] = id
	}
	pool := &t.poolList[id-1]
	port, ok := pool.alloc()
	if !ok {
		if v := pool.oldestEvictable(t); v != nil {
			t.removeConn(v)
			t.Evicted++
			t.NATPortEvictions++
			port, ok = pool.alloc()
		}
	}
	if !ok {
		t.NATExhausted++
		return false
	}
	pool.allocs++
	nr := &t.nats[c.nat]
	nr.pool, nr.Port, nr.seq = id, port, pool.allocs
	pool.inUse[port] = c.self
	return true
}

// alloc scans next-fit from the rotor for a free port, leaving the rotor
// just past it; a scan that finds none goes round to where it started.
func (p *natPool) alloc() (uint16, bool) {
	for i := int(p.hi) - int(p.lo); i >= 0; i-- {
		cand := p.rotor
		if p.rotor++; cand == p.hi {
			p.rotor = p.lo
		}
		if _, used := p.inUse[cand]; !used {
			return cand, true
		}
	}
	return 0, false
}

// oldestEvictable returns the holder that took its port first among those
// not established.
func (p *natPool) oldestEvictable(t *Table) (old *Conn) {
	for _, r := range p.inUse {
		if c := t.conn(r); c.State != StateEstablished && (old == nil || t.nats[c.nat].seq < t.nats[old.nat].seq) {
			old = c
		}
	}
	return old
}
