// Package netlinksim models the kernel's network configuration tables —
// links, addresses, routes, neighbors — together with the rtnetlink-style
// operations the Table 1 tools (ip link/address/route/neigh, nstat) perform
// against them, and the notification machinery OVS uses to keep a
// userspace replica of each table (Section 4: "OVS caches a userspace
// replica of each kernel table using Netlink").
//
// The package also captures the paper's central compatibility argument:
// a NIC handed to DPDK unbinds its kernel driver and vanishes from these
// tables, which is exactly why the Table 1 commands "do not work on a NIC
// managed by DPDK". AF_XDP ports keep their kernel driver, so every
// operation keeps working.
package netlinksim

import (
	"fmt"

	"ovsxdp/internal/packet/hdr"
)

// LinkState is the administrative state of a link.
type LinkState int

// Link states.
const (
	LinkDown LinkState = iota
	LinkUp
)

// String formats like `ip link`.
func (s LinkState) String() string {
	if s == LinkUp {
		return "UP"
	}
	return "DOWN"
}

// Link is one network device known to the kernel.
type Link struct {
	Index uint32
	Name  string
	MAC   hdr.MAC
	MTU   int
	State LinkState
	// Driver names the kernel driver ("mlx5_core", "ixgbe", "veth",
	// "tun"). A link bound to DPDK has no kernel driver and no Link.
	Driver string

	// Stats mirror what nstat / ip -s report.
	RxPackets, TxPackets uint64
	RxBytes, TxBytes     uint64
	RxDropped            uint64
}

// Addr is an IPv4 address assignment.
type Addr struct {
	LinkIndex uint32
	IP        hdr.IP4
	PrefixLen int
}

// Route is one IPv4 route.
type Route struct {
	Dst       hdr.IP4 // network address
	PrefixLen int
	Gateway   hdr.IP4 // 0 for directly connected
	LinkIndex uint32
}

// Neigh is one ARP table entry.
type Neigh struct {
	IP        hdr.IP4
	MAC       hdr.MAC
	LinkIndex uint32
}

// EventOp discriminates notifications.
type EventOp int

// Notification operations.
const (
	OpAdd EventOp = iota
	OpDel
)

// Event is one netlink notification.
type Event struct {
	Op    EventOp
	Link  *Link
	Addr  *Addr
	Route *Route
	Neigh *Neigh
}

// ErrNoDevice is returned for operations on unknown (or DPDK-stolen)
// devices, the error a user sees when pointing `ip` at a DPDK NIC.
type ErrNoDevice struct{ Name string }

func (e ErrNoDevice) Error() string {
	return fmt.Sprintf("netlink: device %q does not exist", e.Name)
}

// Kernel is one host's set of tables.
type Kernel struct {
	nextIndex uint32
	links     map[uint32]*Link
	byName    map[string]uint32
	addrs     []Addr
	routes    []Route
	neighs    []Neigh
	subs      []func(Event)
}

// NewKernel returns empty tables.
func NewKernel() *Kernel {
	return &Kernel{
		nextIndex: 1,
		links:     make(map[uint32]*Link),
		byName:    make(map[string]uint32),
	}
}

// Subscribe registers a notification callback (an rtnetlink multicast
// group subscription). Existing state is replayed as Add events so a
// late-starting subscriber converges, which is how the OVS replica
// bootstraps.
func (k *Kernel) Subscribe(fn func(Event)) {
	k.subs = append(k.subs, fn)
	for _, l := range k.links {
		fn(Event{Op: OpAdd, Link: l})
	}
	for i := range k.addrs {
		fn(Event{Op: OpAdd, Addr: &k.addrs[i]})
	}
	for i := range k.routes {
		fn(Event{Op: OpAdd, Route: &k.routes[i]})
	}
	for i := range k.neighs {
		fn(Event{Op: OpAdd, Neigh: &k.neighs[i]})
	}
}

func (k *Kernel) notify(e Event) {
	for _, fn := range k.subs {
		fn(e)
	}
}

// --- ip link ----------------------------------------------------------------

// AddLink registers a device and returns its ifindex.
func (k *Kernel) AddLink(name, driver string, mac hdr.MAC, mtu int) (uint32, error) {
	if _, dup := k.byName[name]; dup {
		return 0, fmt.Errorf("netlink: device %q already exists", name)
	}
	idx := k.nextIndex
	k.nextIndex++
	l := &Link{Index: idx, Name: name, MAC: mac, MTU: mtu, Driver: driver}
	k.links[idx] = l
	k.byName[name] = idx
	k.notify(Event{Op: OpAdd, Link: l})
	return idx, nil
}

// DelLink removes a device and everything referencing it.
func (k *Kernel) DelLink(name string) error {
	idx, ok := k.byName[name]
	if !ok {
		return ErrNoDevice{name}
	}
	l := k.links[idx]
	delete(k.links, idx)
	delete(k.byName, name)
	// Cascade: addresses, routes, neighbors on the device go too.
	k.addrs = filter(k.addrs, func(a Addr) bool { return a.LinkIndex != idx },
		func(a Addr) { k.notify(Event{Op: OpDel, Addr: &a}) })
	k.routes = filter(k.routes, func(r Route) bool { return r.LinkIndex != idx },
		func(r Route) { k.notify(Event{Op: OpDel, Route: &r}) })
	k.neighs = filter(k.neighs, func(n Neigh) bool { return n.LinkIndex != idx },
		func(n Neigh) { k.notify(Event{Op: OpDel, Neigh: &n}) })
	k.notify(Event{Op: OpDel, Link: l})
	return nil
}

func filter[T any](in []T, keep func(T) bool, onDrop func(T)) []T {
	out := in[:0]
	for _, v := range in {
		if keep(v) {
			out = append(out, v)
		} else {
			onDrop(v)
		}
	}
	return out
}

// LinkByName looks a device up, as `ip link show dev X` does.
func (k *Kernel) LinkByName(name string) (*Link, error) {
	idx, ok := k.byName[name]
	if !ok {
		return nil, ErrNoDevice{name}
	}
	return k.links[idx], nil
}

// LinkByIndex looks a device up by ifindex.
func (k *Kernel) LinkByIndex(idx uint32) (*Link, error) {
	l, ok := k.links[idx]
	if !ok {
		return nil, ErrNoDevice{fmt.Sprintf("ifindex %d", idx)}
	}
	return l, nil
}

// SetLinkState brings a device up or down.
func (k *Kernel) SetLinkState(name string, s LinkState) error {
	l, err := k.LinkByName(name)
	if err != nil {
		return err
	}
	l.State = s
	k.notify(Event{Op: OpAdd, Link: l})
	return nil
}

// BindDPDK detaches a device from its kernel driver and hands it to DPDK:
// the device disappears from the kernel tables, which is why none of the
// Table 1 commands work on it afterwards. The link details are returned so
// the DPDK layer can keep using the hardware.
func (k *Kernel) BindDPDK(name string) (Link, error) {
	l, err := k.LinkByName(name)
	if err != nil {
		return Link{}, err
	}
	snapshot := *l
	if err := k.DelLink(name); err != nil {
		return Link{}, err
	}
	return snapshot, nil
}

// --- ip address -------------------------------------------------------------

// AddAddr assigns an address and installs the connected route.
func (k *Kernel) AddAddr(linkName string, ip hdr.IP4, prefixLen int) error {
	l, err := k.LinkByName(linkName)
	if err != nil {
		return err
	}
	a := Addr{LinkIndex: l.Index, IP: ip, PrefixLen: prefixLen}
	k.addrs = append(k.addrs, a)
	k.notify(Event{Op: OpAdd, Addr: &a})
	// Connected route for the subnet.
	network := ip & hdr.IP4(prefixMask(prefixLen))
	return k.AddRoute(Route{Dst: network, PrefixLen: prefixLen, LinkIndex: l.Index})
}

// Addrs lists addresses, optionally filtered by device name ("" for all).
func (k *Kernel) Addrs(linkName string) ([]Addr, error) {
	if linkName == "" {
		return append([]Addr(nil), k.addrs...), nil
	}
	l, err := k.LinkByName(linkName)
	if err != nil {
		return nil, err
	}
	var out []Addr
	for _, a := range k.addrs {
		if a.LinkIndex == l.Index {
			out = append(out, a)
		}
	}
	return out, nil
}

// --- ip route ---------------------------------------------------------------

// AddRoute installs a route.
func (k *Kernel) AddRoute(r Route) error {
	if _, ok := k.links[r.LinkIndex]; !ok {
		return ErrNoDevice{fmt.Sprintf("ifindex %d", r.LinkIndex)}
	}
	k.routes = append(k.routes, r)
	k.notify(Event{Op: OpAdd, Route: &r})
	return nil
}

// Routes lists the routing table.
func (k *Kernel) Routes() []Route { return append([]Route(nil), k.routes...) }

// LookupRoute performs longest-prefix-match routing for dst.
func (k *Kernel) LookupRoute(dst hdr.IP4) (Route, bool) {
	return lookupRoute(k.routes, dst)
}

func lookupRoute(routes []Route, dst hdr.IP4) (Route, bool) {
	best := -1
	var out Route
	for _, r := range routes {
		if dst&hdr.IP4(prefixMask(r.PrefixLen)) == r.Dst && r.PrefixLen > best {
			best = r.PrefixLen
			out = r
		}
	}
	return out, best >= 0
}

// --- ip neigh ---------------------------------------------------------------

// AddNeigh installs an ARP entry.
func (k *Kernel) AddNeigh(n Neigh) error {
	if _, ok := k.links[n.LinkIndex]; !ok {
		return ErrNoDevice{fmt.Sprintf("ifindex %d", n.LinkIndex)}
	}
	// Replace any existing entry for the IP on the same link.
	for i := range k.neighs {
		if k.neighs[i].IP == n.IP && k.neighs[i].LinkIndex == n.LinkIndex {
			k.neighs[i] = n
			k.notify(Event{Op: OpAdd, Neigh: &n})
			return nil
		}
	}
	k.neighs = append(k.neighs, n)
	k.notify(Event{Op: OpAdd, Neigh: &n})
	return nil
}

// Neighs lists the ARP table.
func (k *Kernel) Neighs() []Neigh { return append([]Neigh(nil), k.neighs...) }

// LookupNeigh resolves an IP to a MAC.
func (k *Kernel) LookupNeigh(ip hdr.IP4) (Neigh, bool) {
	for _, n := range k.neighs {
		if n.IP == ip {
			return n, true
		}
	}
	return Neigh{}, false
}

func prefixMask(n int) uint32 {
	switch {
	case n <= 0:
		return 0
	case n >= 32:
		return ^uint32(0)
	default:
		return ^uint32(0) << (32 - n)
	}
}

// --- Userspace replica (Section 4) -------------------------------------------

// Cache is the userspace replica OVS keeps of the kernel tables, updated by
// netlink notifications so that tunnel encapsulation can resolve routes and
// next hops without syscalls on the fast path. "Using kernel facilities for
// this purpose does not cause performance problems because these tables are
// only updated by slow control plane operations."
type Cache struct {
	links  map[uint32]Link
	routes []Route
	neighs []Neigh
	// Updates counts notifications applied (observability for tests).
	Updates uint64
}

// NewCache builds a replica subscribed to k.
func NewCache(k *Kernel) *Cache {
	c := &Cache{links: make(map[uint32]Link)}
	k.Subscribe(c.apply)
	return c
}

func (c *Cache) apply(e Event) {
	c.Updates++
	switch {
	case e.Link != nil:
		if e.Op == OpAdd {
			c.links[e.Link.Index] = *e.Link
		} else {
			delete(c.links, e.Link.Index)
		}
	case e.Route != nil:
		if e.Op == OpAdd {
			c.routes = append(c.routes, *e.Route)
		} else {
			c.routes = filter(c.routes, func(r Route) bool { return r != *e.Route }, func(Route) {})
		}
	case e.Neigh != nil:
		if e.Op == OpAdd {
			replaced := false
			for i := range c.neighs {
				if c.neighs[i].IP == e.Neigh.IP && c.neighs[i].LinkIndex == e.Neigh.LinkIndex {
					c.neighs[i] = *e.Neigh
					replaced = true
				}
			}
			if !replaced {
				c.neighs = append(c.neighs, *e.Neigh)
			}
		} else {
			c.neighs = filter(c.neighs, func(n Neigh) bool { return n != *e.Neigh }, func(Neigh) {})
		}
	}
}

// LookupRoute is LPM against the replica (no syscall).
func (c *Cache) LookupRoute(dst hdr.IP4) (Route, bool) { return lookupRoute(c.routes, dst) }

// LookupNeigh resolves a next hop against the replica.
func (c *Cache) LookupNeigh(ip hdr.IP4) (Neigh, bool) {
	for _, n := range c.neighs {
		if n.IP == ip {
			return n, true
		}
	}
	return Neigh{}, false
}

// Link returns the replicated link state.
func (c *Cache) Link(idx uint32) (Link, bool) {
	l, ok := c.links[idx]
	return l, ok
}

// ResolveNextHop combines route and ARP lookup: the tunnel layer's slow
// path for finding the outer destination MAC and egress device.
func (c *Cache) ResolveNextHop(dst hdr.IP4) (Link, hdr.MAC, bool) {
	r, ok := c.LookupRoute(dst)
	if !ok {
		return Link{}, hdr.MAC{}, false
	}
	hop := dst
	if r.Gateway != 0 {
		hop = r.Gateway
	}
	n, ok := c.LookupNeigh(hop)
	if !ok {
		return Link{}, hdr.MAC{}, false
	}
	l, ok := c.Link(r.LinkIndex)
	if !ok {
		return Link{}, hdr.MAC{}, false
	}
	return l, n.MAC, true
}
