package ovsdb

import (
	"net"
	"strings"
	"testing"
	"time"
)

func TestTransactInsertSelect(t *testing.T) {
	s := NewServer()
	res := s.Transact([]Op{
		{Op: "insert", Table: TableBridge, Row: Row{"name": "br-int", "datapath_type": "netdev"}},
		{Op: "insert", Table: TableBridge, Row: Row{"name": "br-underlay"}},
	})
	if res[0].UUID == "" || res[1].UUID == "" || res[0].UUID == res[1].UUID {
		t.Fatalf("uuids = %+v", res)
	}
	sel := s.Transact([]Op{{Op: "select", Table: TableBridge,
		Where: [][3]any{{"name", "==", "br-int"}}}})
	if sel[0].Count != 1 || sel[0].Rows[0]["datapath_type"] != "netdev" {
		t.Fatalf("select = %+v", sel[0])
	}
}

func TestTransactUpdateDelete(t *testing.T) {
	s := NewServer()
	ins := s.Transact([]Op{{Op: "insert", Table: TableInterface,
		Row: Row{"name": "eth0", "type": "afxdp"}}})
	uuid := ins[0].UUID

	up := s.Transact([]Op{{Op: "update", Table: TableInterface, UUID: uuid,
		Row: Row{"type": "dpdk"}}})
	if up[0].Count != 1 {
		t.Fatalf("update count = %d", up[0].Count)
	}
	sel := s.Transact([]Op{{Op: "select", Table: TableInterface,
		Where: [][3]any{{"name", "==", "eth0"}}}})
	if sel[0].Rows[0]["type"] != "dpdk" {
		t.Fatal("update not applied")
	}

	del := s.Transact([]Op{{Op: "delete", Table: TableInterface,
		Where: [][3]any{{"name", "==", "eth0"}}}})
	if del[0].Count != 1 {
		t.Fatal("delete failed")
	}
	if len(s.Rows(TableInterface)) != 0 {
		t.Fatal("row lingers after delete")
	}
}

func TestTransactErrors(t *testing.T) {
	s := NewServer()
	res := s.Transact([]Op{{Op: "insert", Table: "Nope", Row: Row{}}})
	if res[0].Error == "" {
		t.Fatal("unknown table must error")
	}
	res = s.Transact([]Op{{Op: "explode", Table: TableBridge}})
	if res[0].Error == "" {
		t.Fatal("unknown op must error")
	}
}

func TestOnChangeCallback(t *testing.T) {
	s := NewServer()
	var got []Update
	s.OnChange = func(u Update) { got = append(got, u) }
	s.Transact([]Op{{Op: "insert", Table: TableBridge, Row: Row{"name": "br0"}}})
	s.Transact([]Op{{Op: "delete", Table: TableBridge, Where: [][3]any{{"name", "==", "br0"}}}})
	if len(got) != 2 || got[0].Op != "insert" || got[1].Op != "delete" {
		t.Fatalf("updates = %+v", got)
	}
}

func TestWireProtocol(t *testing.T) {
	s := NewServer()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Echo(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Transact([]Op{
		{Op: "insert", Table: TableBridge, Row: Row{"name": "br-int"}},
		{Op: "select", Table: TableBridge, Where: [][3]any{{"name", "==", "br-int"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].UUID == "" || res[1].Count != 1 {
		t.Fatalf("wire transact = %+v", res)
	}
}

// TestDroppedConnectionFailsCalls: a server that accepts and closes the
// connection must fail the client's calls, pending and later ones alike,
// instead of leaving them waiting for a reply that cannot come.
func TestDroppedConnectionFailsCalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if conn, err := ln.Accept(); err == nil {
			conn.Close()
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, name := range []string{"first", "second"} {
		done := make(chan error, 1)
		go func() { done <- c.Echo() }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s Echo on a dropped connection succeeded", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s Echo on a dropped connection never returned", name)
		}
	}
}

// TestWireMonitor: a client cannot subscribe to changes ("monitor" is an
// unknown method); a client's insert over the wire reaches the in-process
// OnChange, which is how the daemon learns of rows.
func TestWireMonitor(t *testing.T) {
	s := NewServer()
	changes := make(chan Update, 1)
	s.OnChange = func(u Update) { changes <- u }
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.call("monitor", nil); err == nil || !strings.Contains(err.Error(), "unknown method monitor") {
		t.Fatalf("monitor answered %v", err)
	}
	if _, err := c.Transact([]Op{{Op: "insert", Table: TablePort, Row: Row{"name": "p1"}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-changes:
		if u.Table != TablePort || u.Op != "insert" || u.Row["name"] != "p1" {
			t.Fatalf("update = %+v", u)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnChange never heard the insert")
	}
}

func TestNumericWhereComparison(t *testing.T) {
	s := NewServer()
	s.Transact([]Op{{Op: "insert", Table: TablePort, Row: Row{"name": "p1", "tag": 100}}})
	// Over the wire, 100 becomes float64; both must match.
	sel := s.Transact([]Op{{Op: "select", Table: TablePort, Where: [][3]any{{"tag", "==", float64(100)}}}})
	if sel[0].Count != 1 {
		t.Fatal("float/int comparison failed")
	}
	sel = s.Transact([]Op{{Op: "select", Table: TablePort, Where: [][3]any{{"tag", "==", 100}}}})
	if sel[0].Count != 1 {
		t.Fatal("int/int comparison failed")
	}
}
