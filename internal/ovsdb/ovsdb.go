// Package ovsdb implements a compact OVSDB-style configuration database:
// JSON-RPC over TCP with transact (insert/select/update/delete) and echo;
// the daemon learns of committed changes in process (Server.OnChange). The
// NSX agent uses it the way
// Section 4 describes: "The NSX agent uses OVSDB ... to create two bridges
// ... Then it transforms the NSX network policies into flow rules".
//
// The schema is the subset of Open_vSwitch that matters here: Bridge, Port,
// and Interface tables, with Interface.type selecting the datapath port
// transport (afxdp, dpdk, vhostuser, tap, system, geneve).
package ovsdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
)

// Table names.
const (
	TableBridge    = "Bridge"
	TablePort      = "Port"
	TableInterface = "Interface"
)

// Row is one database row. Every row has a "_uuid" string key assigned at
// insert.
type Row map[string]any

// UUID returns the row's uuid.
func (r Row) UUID() string {
	s, _ := r["_uuid"].(string)
	return s
}

// Op is one operation inside a transact request.
type Op struct {
	Op    string   `json:"op"` // insert | select | update | delete
	Table string   `json:"table"`
	Row   Row      `json:"row,omitempty"`
	Where [][3]any `json:"where,omitempty"` // [column, "==", value]
	UUID  string   `json:"uuid,omitempty"`  // for update/delete by uuid
}

// OpResult is one operation's result.
type OpResult struct {
	UUID  string `json:"uuid,omitempty"`
	Rows  []Row  `json:"rows,omitempty"`
	Count int    `json:"count,omitempty"`
	Error string `json:"error,omitempty"`
}

// rpcRequest is the JSON-RPC frame.
type rpcRequest struct {
	Method string          `json:"method"`
	Params json.RawMessage `json:"params"`
	ID     *int64          `json:"id"`
}

type rpcResponse struct {
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	ID     *int64 `json:"id"`
}

// Update is one committed change to a row.
type Update struct {
	Table string `json:"table"`
	Op    string `json:"op"` // insert | update | delete
	Row   Row    `json:"row"`
}

// Server is the database server.
type Server struct {
	mu       sync.Mutex
	tables   map[string]map[string]Row
	nextUUID int
	ln       net.Listener

	// OnChange, when set, receives every committed update synchronously
	// (used by vswitchd to reconfigure without a network hop).
	OnChange func(Update)
}

// NewServer returns an empty database.
func NewServer() *Server {
	return &Server{tables: map[string]map[string]Row{
		TableBridge:    {},
		TablePort:      {},
		TableInterface: {},
	}}
}

// Transact applies operations atomically and returns per-op results. It is
// callable directly (in-process) or via the wire protocol. Notifications
// fire after the lock is released, so OnChange handlers may re-enter the
// database (e.g. vswitchd recording a port error on the Interface row).
func (s *Server) Transact(ops []Op) []OpResult {
	s.mu.Lock()
	results := make([]OpResult, len(ops))
	var updates []Update
	for i, op := range ops {
		results[i] = s.apply(op, &updates)
	}
	s.mu.Unlock()
	for _, u := range updates {
		s.notify(u)
	}
	return results
}

func (s *Server) apply(op Op, updates *[]Update) OpResult {
	tbl, ok := s.tables[op.Table]
	if !ok {
		return OpResult{Error: fmt.Sprintf("no table %q", op.Table)}
	}
	switch op.Op {
	case "insert":
		s.nextUUID++
		uuid := fmt.Sprintf("uuid-%06d", s.nextUUID)
		row := Row{"_uuid": uuid}
		for k, v := range op.Row {
			row[k] = v
		}
		tbl[uuid] = row
		*updates = append(*updates, Update{Table: op.Table, Op: "insert", Row: row})
		return OpResult{UUID: uuid}
	case "select":
		var rows []Row
		for _, r := range tbl {
			if matchWhere(r, op.Where) {
				rows = append(rows, r)
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].UUID() < rows[j].UUID() })
		return OpResult{Rows: rows, Count: len(rows)}
	case "update":
		count := 0
		for _, r := range tbl {
			if op.UUID != "" && r.UUID() != op.UUID {
				continue
			}
			if op.UUID == "" && !matchWhere(r, op.Where) {
				continue
			}
			for k, v := range op.Row {
				if k != "_uuid" {
					r[k] = v
				}
			}
			count++
			*updates = append(*updates, Update{Table: op.Table, Op: "update", Row: r})
		}
		return OpResult{Count: count}
	case "delete":
		count := 0
		for uuid, r := range tbl {
			if op.UUID != "" && uuid != op.UUID {
				continue
			}
			if op.UUID == "" && !matchWhere(r, op.Where) {
				continue
			}
			delete(tbl, uuid)
			count++
			*updates = append(*updates, Update{Table: op.Table, Op: "delete", Row: r})
		}
		return OpResult{Count: count}
	default:
		return OpResult{Error: fmt.Sprintf("unknown op %q", op.Op)}
	}
}

func matchWhere(r Row, where [][3]any) bool {
	for _, w := range where {
		col, _ := w[0].(string)
		opr, _ := w[1].(string)
		if opr != "==" {
			return false
		}
		if !looseEqual(r[col], w[2]) {
			return false
		}
	}
	return true
}

// looseEqual compares JSON-decoded values (numbers arrive as float64).
func looseEqual(a, b any) bool {
	if af, ok := a.(float64); ok {
		switch bv := b.(type) {
		case float64:
			return af == bv
		case int:
			return af == float64(bv)
		}
	}
	if ai, ok := a.(int); ok {
		switch bv := b.(type) {
		case float64:
			return float64(ai) == bv
		case int:
			return ai == bv
		}
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

func (s *Server) notify(u Update) {
	if s.OnChange != nil {
		s.OnChange(u)
	}
}

// Rows returns a snapshot of a table's rows (diagnostics, vswitchd sync).
func (s *Server) Rows(table string) []Row {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Row
	for _, r := range s.tables[table] {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UUID() < out[j].UUID() })
	return out
}

// Serve accepts connections on ln until it is closed.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go s.handle(conn)
	}
}

// ListenAndServe starts a TCP listener and serves in a goroutine,
// returning the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go s.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener.
func (s *Server) Close() {
	if s.ln != nil {
		s.ln.Close()
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var req rpcRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		switch req.Method {
		case "echo":
			enc.Encode(rpcResponse{Result: "echo", ID: req.ID})
		case "transact":
			var ops []Op
			if err := json.Unmarshal(req.Params, &ops); err != nil {
				enc.Encode(rpcResponse{Error: err.Error(), ID: req.ID})
				continue
			}
			enc.Encode(rpcResponse{Result: s.Transact(ops), ID: req.ID})
		default:
			enc.Encode(rpcResponse{Error: "unknown method " + req.Method, ID: req.ID})
		}
	}
}

// Client is a wire client.
type Client struct {
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
	mu   sync.Mutex
	next int64

	pending map[int64]chan rpcResponse
	// err is the read loop's terminal error: once set, every pending call
	// has been failed and every later call fails at once.
	err error
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		dec:     json.NewDecoder(bufio.NewReader(conn)),
		enc:     json.NewEncoder(conn),
		pending: make(map[int64]chan rpcResponse),
	}
	go c.readLoop()
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() { c.conn.Close() }

func (c *Client) readLoop() {
	for {
		var resp rpcResponse
		if err := c.dec.Decode(&resp); err != nil {
			c.mu.Lock()
			c.err = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		if resp.ID != nil {
			c.mu.Lock()
			ch := c.pending[*resp.ID]
			delete(c.pending, *resp.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- resp
			}
		}
	}
}

func (c *Client) call(method string, params any) (rpcResponse, error) {
	raw, err := json.Marshal(params)
	if err != nil {
		return rpcResponse{}, err
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return rpcResponse{}, fmt.Errorf("ovsdb: connection closed: %w", err)
	}
	c.next++
	id := c.next
	ch := make(chan rpcResponse, 1)
	c.pending[id] = ch
	err = c.enc.Encode(rpcRequest{Method: method, Params: raw, ID: &id})
	c.mu.Unlock()
	if err != nil {
		return rpcResponse{}, err
	}
	resp, ok := <-ch
	if !ok {
		return rpcResponse{}, fmt.Errorf("ovsdb: connection closed")
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("ovsdb: %s", resp.Error)
	}
	return resp, nil
}

// Transact runs operations on the server.
func (c *Client) Transact(ops []Op) ([]OpResult, error) {
	resp, err := c.call("transact", ops)
	if err != nil {
		return nil, err
	}
	raw, _ := json.Marshal(resp.Result)
	var out []OpResult
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Echo verifies liveness.
func (c *Client) Echo() error {
	_, err := c.call("echo", nil)
	return err
}
