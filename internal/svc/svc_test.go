// The svc handler suite drives every RouteTable endpoint over real HTTP
// against a live AF_XDP bed, including the error paths (404/405/400) and
// the all-or-nothing config batch. It runs traffic first so counters and
// flows are nonzero, then serves from an idle-parked controller — exactly
// the daemon's post-window state.
package svc_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ovsxdp/internal/api"
	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/experiments"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/svc"
)

const testWindow = 2 * sim.Millisecond

// newTestServer runs a short traffic window on a small bed, then leaves the
// controller idle-serving and the API live.
func newTestServer(t *testing.T) (*httptest.Server, *experiments.Bed) {
	t.Helper()
	cfg := experiments.DefaultBed(experiments.KindAFXDP, 16)
	bed := experiments.NewP2PBed(cfg)
	ctl := core.NewController(bed.Eng)
	inj := faultinject.New(bed.Eng)
	server := svc.NewServer(ctl, svc.Target{Name: "t0", DP: bed.DP})
	server.SetInjector(inj)

	bed.Gen.Run(1e6, testWindow)
	ctl.Run(testWindow)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { ctl.ServeIdle(stop); close(done) }()
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(func() { ts.Close(); close(stop); <-done })
	return ts, bed
}

// doReq issues one request and returns status and body.
func doReq(t *testing.T, ts *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestRouteTableServes walks the canonical route table end to end: every
// documented route must answer a well-formed request with success. This is
// the lint the CI step runs — the table cannot describe routes the mux does
// not serve.
func TestRouteTableServes(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, r := range svc.RouteTable {
		path := strings.ReplaceAll(r.Pattern, "{name}", "t0")
		body, want := "", http.StatusOK
		switch {
		case r.Method == "PUT" && r.Pattern == "/v1/config":
			body = `{"values":{"emc-enable":"true"}}`
		case r.Method == "POST" && r.Pattern == "/v1/faults":
			body = `{"kind":"upcall-failure","target":"upcall","at_us":0,"duration_us":100}`
			want = http.StatusAccepted
		}
		status, data := doReq(t, ts, r.Method, path, body)
		if status != want {
			t.Errorf("%s %s = %d, want %d: %s", r.Method, path, status, want, data)
		}
		if r.Pattern == "/metrics" {
			continue // text exposition, no envelope
		}
		var env struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(data, &env); err != nil || env.Schema != api.SchemaAPI {
			t.Errorf("%s %s: body missing schema envelope %q: %s", r.Method, path, api.SchemaAPI, data)
		}
	}
}

// TestErrorPaths pins every 404/405/400 contract.
func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/datapaths/nope/stats", "", http.StatusNotFound},
		{"GET", "/v1/pmd/perf?datapath=nope", "", http.StatusNotFound},
		{"GET", "/v1/flows?datapath=nope", "", http.StatusNotFound},
		{"GET", "/v1/config?datapath=nope", "", http.StatusNotFound},
		{"GET", "/v1/flows?offset=x", "", http.StatusBadRequest},
		{"GET", "/v1/flows?limit=-1", "", http.StatusBadRequest},
		{"PUT", "/v1/config", "{not json", http.StatusBadRequest},
		{"PUT", "/v1/config", `{"values":{}}`, http.StatusBadRequest},
		{"POST", "/v1/faults", `{"kind":"meteor-strike","target":"x","duration_us":1}`, http.StatusBadRequest},
		// Nothing gates on a revalidator stall, so it is not a kind.
		{"POST", "/v1/faults", `{"kind":"revalidator-stall","target":"x","duration_us":1}`, http.StatusBadRequest},
		{"POST", "/v1/faults", `{"kind":"upcall-failure","target":"x","duration_us":0}`, http.StatusBadRequest},
		{"DELETE", "/v1/config", "", http.StatusMethodNotAllowed},
		{"POST", "/v1/datapaths", "", http.StatusMethodNotAllowed},
		{"PUT", "/v1/faults", "", http.StatusMethodNotAllowed},
		{"GET", "/v1/nope", "", http.StatusNotFound},
	}
	for _, c := range cases {
		status, data := doReq(t, ts, c.method, c.path, c.body)
		if status != c.want {
			t.Errorf("%s %s = %d, want %d: %s", c.method, c.path, status, c.want, data)
		}
	}
}

// TestConfigUnknownKeyErrorMatchesCLI pins the shared-schema satellite: the
// API rejects an unknown other_config key with the *identical* error text
// `ovsctl set` prints, because both go through the one dpif schema.
func TestConfigUnknownKeyErrorMatchesCLI(t *testing.T) {
	ts, _ := newTestServer(t)
	status, data := doReq(t, ts, "PUT", "/v1/config", `{"values":{"no-such-key":"1"}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown key = %d, want 400: %s", status, data)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	want := dpif.CheckConfig(map[string]string{"no-such-key": "1"}).Error()
	if body.Error != want {
		t.Fatalf("error text diverged from the dpif schema:\n api: %s\n cli: %s", body.Error, want)
	}
}

// TestConfigBatchAllOrNothing: a batch with one bad key must change
// nothing, even if other keys in it are valid.
func TestConfigBatchAllOrNothing(t *testing.T) {
	ts, _ := newTestServer(t)
	readEmc := func() string {
		_, data := doReq(t, ts, "GET", "/v1/config", "")
		var body struct {
			Values map[string]string `json:"values"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatal(err)
		}
		return body.Values["emc-enable"]
	}
	before := readEmc()
	flip := "false"
	if before == "false" {
		flip = "true"
	}
	status, data := doReq(t, ts, "PUT", "/v1/config",
		`{"values":{"emc-enable":"`+flip+`","no-such-key":"1"}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("mixed batch = %d, want 400: %s", status, data)
	}
	if after := readEmc(); after != before {
		t.Fatalf("rejected batch still applied: emc-enable %q -> %q", before, after)
	}
}

// TestConfigPutApplies: a valid mutation lands and the response echoes the
// new effective config.
func TestConfigPutApplies(t *testing.T) {
	ts, _ := newTestServer(t)
	status, data := doReq(t, ts, "PUT", "/v1/config", `{"values":{"smc-enable":"true"}}`)
	if status != http.StatusOK {
		t.Fatalf("PUT = %d: %s", status, data)
	}
	var body struct {
		Values map[string]string `json:"values"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if body.Values["smc-enable"] != "true" {
		t.Fatalf("response config shows smc-enable=%q, want true", body.Values["smc-enable"])
	}
}

// TestFaultPastStartClamps: a fault armed in the virtual past starts now.
func TestFaultPastStartClamps(t *testing.T) {
	ts, _ := newTestServer(t)
	status, data := doReq(t, ts, "POST", "/v1/faults",
		`{"kind":"upcall-failure","target":"upcall","at_us":0,"duration_us":50}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", status, data)
	}
	var body struct {
		ArmedAtUs int64 `json:"armed_at_us"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if want := int64(testWindow / sim.Microsecond); body.ArmedAtUs != want {
		t.Fatalf("armed_at_us = %d, want clamped to %d", body.ArmedAtUs, want)
	}
}

// TestFaultsWithoutInjector: a server never armed with an injector refuses.
func TestFaultsWithoutInjector(t *testing.T) {
	eng := sim.NewEngine(1)
	ctl := core.NewController(eng)
	server := svc.NewServer(ctl)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { ctl.ServeIdle(stop); close(done) }()
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(func() { ts.Close(); close(stop); <-done })
	status, _ := doReq(t, ts, "POST", "/v1/faults",
		`{"kind":"upcall-failure","target":"x","duration_us":1}`)
	if status != http.StatusBadRequest {
		t.Fatalf("faults without injector = %d, want 400", status)
	}
}

// TestStatsAndFlows: stats reflect the traffic window and the flow dump
// pages correctly.
func TestStatsAndFlows(t *testing.T) {
	ts, bed := newTestServer(t)
	_, data := doReq(t, ts, "GET", "/v1/datapaths/t0/stats", "")
	var sb struct {
		Stats api.StatsView `json:"stats"`
	}
	if err := json.Unmarshal(data, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Stats.Hits == 0 {
		t.Fatal("stats over HTTP show zero hits after a traffic window")
	}
	if sb.Stats.Hits+sb.Stats.Missed < bed.Delivered {
		t.Fatalf("lookups (%d) < delivered (%d)", sb.Stats.Hits+sb.Stats.Missed, bed.Delivered)
	}

	_, data = doReq(t, ts, "GET", "/v1/flows", "")
	var all struct{ api.FlowPage }
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatal(err)
	}
	if all.Total == 0 || len(all.Flows) != all.Total {
		t.Fatalf("unpaged dump: total=%d flows=%d", all.Total, len(all.Flows))
	}
	_, data = doReq(t, ts, "GET", "/v1/flows?limit=1", "")
	var page struct{ api.FlowPage }
	if err := json.Unmarshal(data, &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != all.Total || len(page.Flows) != 1 {
		t.Fatalf("paged dump: total=%d flows=%d", page.Total, len(page.Flows))
	}
	if page.Flows[0] != all.Flows[0] {
		t.Fatal("first page does not match the unpaged dump")
	}
	_, data = doReq(t, ts, "GET", fmt.Sprintf("/v1/flows?offset=%d", all.Total), "")
	if err := json.Unmarshal(data, &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != all.Total || len(page.Flows) != 0 {
		t.Fatalf("past-the-end page: total=%d flows=%d, want empty", page.Total, len(page.Flows))
	}
}

// TestMetricsExposition: the Prometheus endpoint speaks text format 0.0.4
// and carries the core series.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t)
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"ovsxdp_virtual_time_seconds",
		`ovsxdp_lookups_hit_total{datapath="t0"}`,
		"# TYPE ovsxdp_megaflows gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
