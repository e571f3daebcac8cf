// Package vswitchd is the ovs-vswitchd analog: the userspace daemon that
// owns the datapath, reconfigures it from OVSDB (bridges, ports, interface
// types), takes the OpenFlow messages that program the pipeline — over TCP
// or in process, through one method — and manages the XDP program lifecycle
// on AF_XDP ports.
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
// registry and of datapath port numbering; a flow mod it applies leaves the
// installed megaflows to dpif.Revalidate.
type VSwitchd struct {
	mu sync.Mutex

	DB       *ovsdb.Server
	Pipeline *ofproto.Pipeline
	Datapath dpif.Dpif
	Factory  PortFactory

	bridges map[string]*Bridge
	nextID  uint32

	ofLn net.Listener
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
		if reply, ok := v.Handle(msg); ok {
			openflow.WriteMessage(conn, reply)
		}
	}
}

// Handle is the daemon's one way in for a controller: it applies one
// OpenFlow message and returns the reply, ok false when the message has
// none. A flow mod is applied and has no reply unless it does not decode.
// The TCP sessions ServeOpenFlow accepts and in-process controllers send
// their encoded messages here alike.
func (v *VSwitchd) Handle(msg openflow.Message) (reply openflow.Message, ok bool) {
	switch msg.Type {
	case openflow.TypeHello:
		// Version negotiated; nothing to do.
		return reply, false
	case openflow.TypeEchoRequest:
		return openflow.EchoReply(msg), true
	case openflow.TypeFeaturesReq:
		return openflow.FeaturesReply(msg.Xid, 0x0000feedbeef0001), true
	case openflow.TypeFlowMod:
		fm, err := openflow.DecodeFlowMod(msg)
		if err != nil {
			return openflow.ErrorMsg(msg.Xid, 4, 0, nil), true
		}
		v.applyFlowMod(fm)
		return reply, false
	default:
		return openflow.ErrorMsg(msg.Xid, 1, 0, nil), true
	}
}

// applyFlowMod installs or removes a rule and revalidates the datapath flows.
func (v *VSwitchd) applyFlowMod(fm openflow.FlowMod) {
	v.mu.Lock()
	defer v.mu.Unlock()
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
	dpif.Revalidate(v.Datapath, v.Pipeline.Translate)
}
