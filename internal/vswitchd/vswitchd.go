// Package vswitchd is the ovs-vswitchd analog: the userspace daemon that
// owns the datapath, reconfigures it from OVSDB (bridges, ports, interface
// types), accepts OpenFlow connections that program the pipeline, manages
// the XDP program lifecycle on AF_XDP ports, and — per the Section 6
// lessons — survives its own crashes by auto-restarting instead of taking
// the host down with it.
package vswitchd

import (
	"fmt"
	"net"
	"sync"

	"ovsxdp/internal/dpif"
	"ovsxdp/internal/kit"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/openflow"
	"ovsxdp/internal/ovsdb"
)

// PortFactory builds the device behind an Interface row as datapath port id.
// New installs kit.NewIface on the daemon's datapath; tests substitute their
// own to observe delivery.
type PortFactory func(ifType, name string, id uint32, queues int) (*kit.Iface, error)

// Bridge is one OVS bridge.
type Bridge struct {
	Name string
	// Ports maps port name to the attached interface.
	Ports map[string]*kit.Iface
}

// VSwitchd is the daemon. It is the one owner of the bridge and port
// registry, of datapath port numbering, and of "install the rule, then
// flush the datapath flows".
type VSwitchd struct {
	mu sync.Mutex

	DB       *ovsdb.Server
	Pipeline *ofproto.Pipeline
	Datapath dpif.Dpif
	Factory  PortFactory

	bridges map[string]*Bridge
	nextID  uint32

	ofLn net.Listener

	// Health monitoring (Section 6 "Reduced risk" / "Easier
	// troubleshooting"): a panic in packet processing crashes only the
	// daemon; the monitor restarts it and the flow caches rebuild from
	// upcalls.
	Crashes  uint64
	Restarts uint64
	// OnRestart, when set, is called after an auto-restart completes.
	OnRestart func()

	// FlowMods counts rules installed via OpenFlow.
	FlowMods uint64
}

// New builds a daemon around a database (nil for a daemon driven only
// through its methods), the OpenFlow pipeline, and any dpif datapath
// provider — the daemon never learns which one it drives.
func New(db *ovsdb.Server, pl *ofproto.Pipeline, dp dpif.Dpif) *VSwitchd {
	v := &VSwitchd{
		DB:       db,
		Pipeline: pl,
		Datapath: dp,
		bridges:  make(map[string]*Bridge),
		nextID:   1,
	}
	v.Factory = func(ifType, name string, id uint32, queues int) (*kit.Iface, error) {
		return kit.NewIface(v.Datapath, ifType, name, id, queues)
	}
	if db != nil {
		db.OnChange = v.onDBChange
	}
	return v
}

// AddBridge creates a bridge; one that exists is left as it is.
func (v *VSwitchd) AddBridge(name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.bridges[name]; !ok {
		v.bridges[name] = &Bridge{Name: name, Ports: make(map[string]*kit.Iface)}
	}
}

// Bridges returns the bridge names.
func (v *VSwitchd) Bridges() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var names []string
	for n := range v.bridges {
		names = append(names, n)
	}
	return names
}

// Bridge returns a bridge by name.
func (v *VSwitchd) Bridge(name string) (*Bridge, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	b, ok := v.bridges[name]
	return b, ok
}

// onDBChange reacts to OVSDB updates: bridges appear/disappear, interfaces
// become datapath ports.
func (v *VSwitchd) onDBChange(u ovsdb.Update) {
	name, _ := u.Row["name"].(string)
	switch {
	case u.Table == ovsdb.TableBridge && u.Op == "insert":
		v.AddBridge(name)
	case u.Table == ovsdb.TableBridge && u.Op == "delete":
		v.mu.Lock()
		delete(v.bridges, name)
		v.mu.Unlock()
	case u.Table == ovsdb.TableInterface && u.Op == "insert":
		ifType, _ := u.Row["type"].(string)
		bridge, _ := u.Row["bridge"].(string)
		if _, err := v.AddPort(bridge, name, ifType, 1); err != nil {
			// Configuration errors surface via the Interface row.
			v.DB.Transact([]ovsdb.Op{{Op: "update", Table: ovsdb.TableInterface,
				UUID: u.Row.UUID(), Row: ovsdb.Row{"error": err.Error()}}})
		}
	}
}

// AddPort builds an interface of the given type with the factory (for afxdp
// that loads and attaches the XDP program, the lifecycle step Section 4
// describes), numbers it, attaches it to the datapath — onto the running PMD
// threads, when there are any — and records it on the bridge.
func (v *VSwitchd) AddPort(bridge, name, ifType string, queues int) (*kit.Iface, error) {
	v.mu.Lock()
	b, ok := v.bridges[bridge]
	if !ok {
		v.mu.Unlock()
		return nil, fmt.Errorf("vswitchd: no bridge %q", bridge)
	}
	if _, dup := b.Ports[name]; dup {
		v.mu.Unlock()
		return nil, fmt.Errorf("vswitchd: bridge %q already has a port %q", bridge, name)
	}
	id := v.nextID
	v.nextID++
	v.mu.Unlock()

	iface, err := v.Factory(ifType, name, id, queues)
	if err != nil {
		return nil, fmt.Errorf("vswitchd: creating %s port %q: %w", ifType, name, err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := kit.Attach(v.Datapath, iface.Port); err != nil {
		return nil, fmt.Errorf("vswitchd: attaching %s port %q: %w", ifType, name, err)
	}
	b.Ports[name] = iface
	return iface, nil
}

// DelPort removes a port from its bridge and the datapath.
func (v *VSwitchd) DelPort(bridge, name string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	b, ok := v.bridges[bridge]
	if !ok {
		return fmt.Errorf("vswitchd: no bridge %q", bridge)
	}
	p, ok := b.Ports[name]
	if !ok {
		return fmt.Errorf("vswitchd: no port %q on %q", name, bridge)
	}
	if err := v.Datapath.PortDel(p.ID()); err != nil {
		return err
	}
	delete(b.Ports, name)
	return nil
}

// --- OpenFlow endpoint ---------------------------------------------------------

// ServeOpenFlow accepts controller connections on addr and returns the
// bound address.
func (v *VSwitchd) ServeOpenFlow(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	v.ofLn = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go v.handleOpenFlow(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// Close shuts down the OpenFlow listener.
func (v *VSwitchd) Close() {
	if v.ofLn != nil {
		v.ofLn.Close()
	}
}

func (v *VSwitchd) handleOpenFlow(conn net.Conn) {
	defer conn.Close()
	openflow.WriteMessage(conn, openflow.Hello(0))
	for {
		msg, err := openflow.ReadMessage(conn)
		if err != nil {
			return
		}
		switch msg.Type {
		case openflow.TypeHello:
			// Version negotiated; nothing to do.
		case openflow.TypeEchoRequest:
			openflow.WriteMessage(conn, openflow.EchoReply(msg))
		case openflow.TypeFeaturesReq:
			openflow.WriteMessage(conn, openflow.FeaturesReply(msg.Xid, 0x0000feedbeef0001))
		case openflow.TypeFlowMod:
			fm, err := openflow.DecodeFlowMod(msg)
			if err != nil {
				openflow.WriteMessage(conn, openflow.ErrorMsg(msg.Xid, 4, 0, nil))
				continue
			}
			v.ApplyFlowMod(fm)
		case openflow.TypeMultipartReq:
			table, err := openflow.ParseFlowStatsRequest(msg)
			if err != nil {
				openflow.WriteMessage(conn, openflow.ErrorMsg(msg.Xid, 18, 0, nil))
				continue
			}
			openflow.WriteMessage(conn, openflow.FlowStatsReply(msg.Xid, v.FlowStats(table)))
		default:
			openflow.WriteMessage(conn, openflow.ErrorMsg(msg.Xid, 1, 0, nil))
		}
	}
}

// ApplyFlowMod installs or removes a rule and revalidates datapath flows.
func (v *VSwitchd) ApplyFlowMod(fm openflow.FlowMod) {
	switch fm.Command {
	case openflow.FlowModAdd:
		v.Pipeline.AddRule(&ofproto.Rule{
			TableID:  fm.TableID,
			Priority: fm.Priority,
			Cookie:   fm.Cookie,
			Match:    fm.Match,
			Actions:  fm.Actions,
		})
	case openflow.FlowModDelete:
		v.Pipeline.Table(fm.TableID).Remove(fm.Match, fm.Priority)
	}
	v.FlowMods++
	// Revalidation: cached megaflows may encode stale decisions.
	v.Datapath.FlowFlush()
}

// FlowStats gathers per-rule statistics for a table (0xff = all tables),
// the data behind ovs-ofctl dump-flows.
func (v *VSwitchd) FlowStats(table uint8) []openflow.FlowStatEntry {
	var out []openflow.FlowStatEntry
	tables := v.Pipeline.TableIDs()
	for _, id := range tables {
		if table != 0xff && id != table {
			continue
		}
		for _, r := range v.Pipeline.Table(id).Rules() {
			out = append(out, openflow.FlowStatEntry{
				Table:    r.TableID,
				Priority: r.Priority,
				Packets:  r.PacketCount,
				Cookie:   r.Cookie,
			})
		}
	}
	return out
}

// --- Health monitor --------------------------------------------------------------

// Guard wraps a packet-path call; a panic is converted into a crash +
// restart cycle instead of propagating (the userspace analog of "a bug in
// OVS with AF_XDP only crashes the OVS process, which automatically
// restarts").
func (v *VSwitchd) Guard(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			crashed = true
			v.Crashes++
			v.restart()
		}
	}()
	fn()
	return false
}

// restart is the health-monitor action: flush all cached flow state (the
// process died; caches die with it) and resume. Ports and OpenFlow rules
// survive because their configuration lives in OVSDB / the controller,
// which re-installs on reconnect — modeled here by retaining the pipeline.
func (v *VSwitchd) restart() {
	v.Datapath.FlowFlush()
	v.Restarts++
	if v.OnRestart != nil {
		v.OnRestart()
	}
}
