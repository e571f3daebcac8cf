// Package svc is the ovs-svc HTTP control plane: a REST + Prometheus
// surface over a live simulation. Handlers never touch engine-owned state
// directly — every read and mutation is submitted to a core.Controller,
// which applies it on the simulation goroutine between events. That seam is
// what lets wall-clock HTTP clients observe and reconfigure a virtual-time
// datapath without tearing counters or perturbing determinism.
//
// The route table (RouteTable) is the canonical, lintable description of
// the API: Handler() refuses to build a mux that does not implement it
// exactly, and the CI lint test walks it end to end. Every response body
// embeds api.Envelope with schema api.SchemaAPI.
package svc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"ovsxdp/internal/api"
	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/sim"
)

// Target is one datapath the server exposes, addressed by Name in URLs.
type Target struct {
	Name string
	DP   dpif.Dpif
}

// Route is one entry of the OpenAPI-ish route table.
type Route struct {
	Method  string
	Pattern string
	Summary string
}

// RouteTable is the canonical API surface. Handler() panics if a route has
// no registered handler or a handler has no route, so this table cannot
// drift from the implementation; the svc tests and the CI lint step walk
// it.
var RouteTable = []Route{
	{"GET", "/v1/datapaths", "list datapaths (name, type, ports, flows)"},
	{"GET", "/v1/datapaths/{name}/stats", "unified stats incl. conntrack and offload blocks"},
	{"GET", "/v1/pmd/perf", "per-thread performance counters (pmd-perf-show as JSON)"},
	{"GET", "/v1/flows", "paged megaflow dump (?datapath=&offset=&limit=)"},
	{"GET", "/v1/config", "effective other_config"},
	{"PUT", "/v1/config", "typed other_config mutation (all-or-nothing batch)"},
	{"POST", "/v1/faults", "schedule a fault window in virtual time"},
	{"GET", "/metrics", "Prometheus text exposition"},
}

// Server serves the control plane for a set of datapaths driven by one
// controller.
type Server struct {
	ctl       *core.Controller
	dps       []Target
	inj       *faultinject.Injector
	actuators map[string]func(bool)
}

// NewServer builds a server over the controller and its datapaths. The
// first target is the default for endpoints that take an optional
// ?datapath= selector.
func NewServer(ctl *core.Controller, targets ...Target) *Server {
	return &Server{ctl: ctl, dps: targets, actuators: make(map[string]func(bool))}
}

// SetInjector arms POST /v1/faults with a fault injector; without one the
// endpoint reports 400 on every request.
func (s *Server) SetInjector(inj *faultinject.Injector) { s.inj = inj }

// RegisterActuator attaches a side-effect hook to a (kind, target) fault:
// it runs with the new active state at both window edges, on the
// simulation goroutine. This is how offload-table-pressure reaches
// OffloadClamp without svc knowing any datapath internals.
func (s *Server) RegisterActuator(kind faultinject.Kind, target string, fn func(active bool)) {
	s.actuators[kind.String()+"|"+target] = fn
}

// target resolves the ?datapath= selector (empty means the first target).
func (s *Server) target(name string) (Target, bool) {
	if name == "" && len(s.dps) > 0 {
		return s.dps[0], true
	}
	for _, t := range s.dps {
		if t.Name == name {
			return t, true
		}
	}
	return Target{}, false
}

// do runs fn on the simulation goroutine with the engine paused.
func (s *Server) do(fn func()) { s.ctl.Do(fn) }

// errorBody is the uniform error response.
type errorBody struct {
	api.Envelope
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{
		Envelope: api.Envelope{Schema: api.SchemaAPI},
		Error:    fmt.Sprintf(format, args...),
	})
}

// Handler builds the http.Handler from RouteTable. It panics if the table
// and the handler set disagree — the API cannot silently drift from its
// documentation.
func (s *Server) Handler() http.Handler {
	handlers := s.handlers()
	mux := http.NewServeMux()
	for _, r := range RouteTable {
		key := r.Method + " " + r.Pattern
		h, ok := handlers[key]
		if !ok {
			panic(fmt.Sprintf("svc: route %q has no handler", key))
		}
		mux.HandleFunc(key, h)
		delete(handlers, key)
	}
	for key := range handlers {
		panic(fmt.Sprintf("svc: handler %q not in RouteTable", key))
	}
	return mux
}

// handlers maps "METHOD /pattern" to its implementation; Handler checks it
// one-to-one against RouteTable.
func (s *Server) handlers() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"GET /v1/datapaths":              s.handleDatapaths,
		"GET /v1/datapaths/{name}/stats": s.handleStats,
		"GET /v1/pmd/perf":               s.handlePerf,
		"GET /v1/flows":                  s.handleFlows,
		"GET /v1/config":                 s.handleGetConfig,
		"PUT /v1/config":                 s.handlePutConfig,
		"POST /v1/faults":                s.handleFaults,
		"GET /metrics":                   s.handleMetrics,
	}
}

// DatapathInfo is one row of GET /v1/datapaths.
type DatapathInfo struct {
	Name  string `json:"name"`
	Type  string `json:"type"`
	Ports int    `json:"ports"`
	Flows int    `json:"flows"`
}

type datapathsBody struct {
	api.Envelope
	Datapaths []DatapathInfo `json:"datapaths"`
}

func (s *Server) handleDatapaths(w http.ResponseWriter, r *http.Request) {
	body := datapathsBody{Envelope: api.Envelope{Schema: api.SchemaAPI},
		Datapaths: []DatapathInfo{}}
	s.do(func() {
		for _, t := range s.dps {
			st := t.DP.Stats()
			body.Datapaths = append(body.Datapaths, DatapathInfo{
				Name: t.Name, Type: t.DP.Type(), Ports: st.Ports, Flows: st.Flows})
		}
	})
	writeJSON(w, http.StatusOK, body)
}

type statsBody struct {
	api.Envelope
	Name  string        `json:"name"`
	Stats api.StatsView `json:"stats"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	t, ok := s.target(name)
	if !ok || name == "" {
		writeError(w, http.StatusNotFound, "unknown datapath %q", name)
		return
	}
	body := statsBody{Envelope: api.Envelope{Schema: api.SchemaAPI}, Name: t.Name}
	s.do(func() { body.Stats = api.NewStatsView(t.DP) })
	writeJSON(w, http.StatusOK, body)
}

type perfBody struct {
	api.Envelope
	Name string       `json:"name"`
	Perf api.PerfView `json:"perf"`
}

func (s *Server) handlePerf(w http.ResponseWriter, r *http.Request) {
	t, ok := s.target(r.URL.Query().Get("datapath"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown datapath %q", r.URL.Query().Get("datapath"))
		return
	}
	body := perfBody{Envelope: api.Envelope{Schema: api.SchemaAPI}, Name: t.Name}
	s.do(func() { body.Perf = api.NewPerfView(t.DP.PerfStats()) })
	writeJSON(w, http.StatusOK, body)
}

type flowsBody struct {
	api.Envelope
	Name string `json:"name"`
	api.FlowPage
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	t, ok := s.target(q.Get("datapath"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown datapath %q", q.Get("datapath"))
		return
	}
	offset, limit := 0, 0
	var err error
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, "bad offset %q", v)
			return
		}
	}
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
	}
	body := flowsBody{Envelope: api.Envelope{Schema: api.SchemaAPI}, Name: t.Name}
	s.do(func() {
		body.FlowPage = api.PageFlows(api.NewFlowViews(t.DP.FlowDump()), offset, limit)
	})
	writeJSON(w, http.StatusOK, body)
}

type configBody struct {
	api.Envelope
	Name string `json:"name"`
	api.ConfigView
}

func (s *Server) handleGetConfig(w http.ResponseWriter, r *http.Request) {
	t, ok := s.target(r.URL.Query().Get("datapath"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown datapath %q", r.URL.Query().Get("datapath"))
		return
	}
	body := configBody{Envelope: api.Envelope{Schema: api.SchemaAPI}, Name: t.Name}
	s.do(func() { body.ConfigView = api.NewConfigView(t.DP.GetConfig()) })
	writeJSON(w, http.StatusOK, body)
}

// ConfigRequest is the PUT /v1/config body: a batch of other_config keys,
// validated and applied all-or-nothing through the same dpif schema the
// CLIs use — an unknown key or malformed value rejects the whole batch
// with the identical error text `ovsctl set` prints.
type ConfigRequest struct {
	Values map[string]string `json:"values"`
}

func (s *Server) handlePutConfig(w http.ResponseWriter, r *http.Request) {
	t, ok := s.target(r.URL.Query().Get("datapath"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown datapath %q", r.URL.Query().Get("datapath"))
		return
	}
	var req ConfigRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Values) == 0 {
		writeError(w, http.StatusBadRequest, "need at least one key in values")
		return
	}
	var applyErr error
	body := configBody{Envelope: api.Envelope{Schema: api.SchemaAPI}, Name: t.Name}
	s.do(func() {
		applyErr = t.DP.SetConfig(req.Values)
		body.ConfigView = api.NewConfigView(t.DP.GetConfig())
	})
	if applyErr != nil {
		writeError(w, http.StatusBadRequest, "%v", applyErr)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// FaultRequest is the POST /v1/faults body. Kind names a faultinject.Kind
// ("upcall-failure", "offload-table-pressure", ...); AtUs/DurationUs are
// the window's start and length in virtual microseconds. A start in the
// virtual past is clamped to now.
type FaultRequest struct {
	Kind       string `json:"kind"`
	Target     string `json:"target"`
	AtUs       int64  `json:"at_us"`
	DurationUs int64  `json:"duration_us"`
}

type faultBody struct {
	api.Envelope
	FaultRequest
	// ArmedAtUs is the effective (possibly clamped) window start.
	ArmedAtUs int64 `json:"armed_at_us"`
}

// faultKinds maps wire names back to kinds, built from Kind.String so the
// two can never disagree.
var faultKinds = func() map[string]faultinject.Kind {
	m := make(map[string]faultinject.Kind)
	for k := faultinject.KindUmemExhaustion; k.String() != fmt.Sprintf("Kind(%d)", int(k)); k++ {
		m[k.String()] = k
	}
	return m
}()

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	if s.inj == nil {
		writeError(w, http.StatusBadRequest, "fault injection not armed on this daemon")
		return
	}
	var req FaultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	kind, ok := faultKinds[req.Kind]
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown fault kind %q", req.Kind)
		return
	}
	if req.DurationUs <= 0 {
		writeError(w, http.StatusBadRequest, "duration_us must be positive")
		return
	}
	body := faultBody{Envelope: api.Envelope{Schema: api.SchemaAPI}, FaultRequest: req}
	onSet := s.actuators[req.Kind+"|"+req.Target]
	s.do(func() {
		at := sim.Time(req.AtUs) * sim.Microsecond
		if now := s.ctl.Engine().Now(); at < now {
			at = now
		}
		body.ArmedAtUs = int64(at / sim.Microsecond)
		s.inj.Window(kind, req.Target, at, sim.Time(req.DurationUs)*sim.Microsecond, onSet)
	})
	writeJSON(w, http.StatusAccepted, body)
}
