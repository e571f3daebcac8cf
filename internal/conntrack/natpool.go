package conntrack

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

type natPoolKey struct {
	kind   NATKind
	addr   uint32 // hdr.IP4 widened for the key
	lo, hi uint16
}

// natPool tracks one {kind, address, port-range}'s allocations.
type natPool struct {
	lo, hi uint16
	inUse  map[uint16]struct{}
	// rotor is the next-fit scan start: ports are handed out in
	// ascending wrap-around order, so allocation order is deterministic
	// and freed ports are not immediately reused (minimizing accidental
	// reply cross-wiring while a stale peer still holds table state).
	rotor uint16
	// Allocation-order list, oldest first, through link onPool: the
	// eviction scan order.
	conns connList
	id    uint32 // 1 + index in Table.poolList, what Conn.pool holds
}

// allocNATPort reserves a port for c from its NAT's pool, evicting the
// oldest non-established holder if the range is exhausted. It reports false
// (and counts NATExhausted) when every port is held by an established
// connection. c is not yet installed; on success c.NAT.Port and c.pool are
// set and release happens in removeConn.
func (t *Table) allocNATPort(c *Conn) bool {
	nat := c.NAT
	key := natPoolKey{kind: nat.Kind, addr: uint32(nat.Addr), lo: nat.PortLo, hi: nat.PortHi}
	pool := t.pools[key]
	if pool == nil {
		if t.pools == nil {
			t.pools = make(map[natPoolKey]*natPool)
		}
		pool = &natPool{lo: nat.PortLo, hi: nat.PortHi, inUse: make(map[uint16]struct{}), rotor: nat.PortLo,
			id: uint32(len(t.poolList)) + 1}
		t.pools[key] = pool
		t.poolList = append(t.poolList, pool)
	}
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
	c.pool, c.NAT.Port = pool.id, port
	pool.inUse[port] = struct{}{}
	pool.conns.pushBack(t, c, onPool)
	return true
}

// alloc scans next-fit from the rotor for a free port.
func (p *natPool) alloc() (uint16, bool) {
	span := int(p.hi) - int(p.lo) + 1
	cand := p.rotor
	for i := 0; i < span; i++ {
		if _, used := p.inUse[cand]; !used {
			if cand == p.hi {
				p.rotor = p.lo
			} else {
				p.rotor = cand + 1
			}
			return cand, true
		}
		if cand == p.hi {
			cand = p.lo
		} else {
			cand++
		}
	}
	return 0, false
}

// oldestEvictable returns the oldest holder that is not established.
func (p *natPool) oldestEvictable(t *Table) *Conn {
	for r := p.conns.head; r != 0; r = t.conn(r).links[onPool].next {
		if c := t.conn(r); c.State != StateEstablished {
			return c
		}
	}
	return nil
}

// release frees the connection's port and unlinks it from the pool.
func (p *natPool) release(t *Table, c *Conn) {
	delete(p.inUse, c.NAT.Port)
	p.conns.remove(t, c, onPool)
}
