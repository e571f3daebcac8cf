// Package api is the typed, versioned view layer of the control plane:
// every surface that reports datapath state — the ovs-svc HTTP daemon, the
// ovsctl/ovsbench CLIs, and the committed benchmark JSON artifacts —
// renders from the DTOs defined here instead of hand-formatting the
// underlying structs.
//
// Before this package existed, `ovsctl dpctl-stats`, `pmd-perf-show`, and
// the per-scenario bench emitters each carried their own formatter over
// overlapping counters, so adding a counter meant touching three diverging
// render paths. Now the flow is one-way:
//
//	dpif.Stats / perf.ThreadStats / dpif.Flow  -->  view  -->  render
//
// where render is text (CLI) or JSON (daemon, bench artifacts). The stats
// view is dpif.Stats itself, embedded under its own JSON tags, plus the
// cache-hierarchy sums; /metrics renders dpif.Stats through dpif.Counters.
//
// Construction deep-copies everything it takes from a provider (see
// NewStatsView), so a caller that mutates a view — an HTTP client decoding
// into it, a test poking fields — can never alias live datapath state.
//
// Versioning: every machine-readable artifact carries an Envelope header
// naming its schema as "ovsxdp-<name>/v<version>". The HTTP control plane
// itself is schema SchemaAPI.
package api

import "fmt"

// SchemaAPI is the schema identifier carried by every ovs-svc HTTP
// response body. v2 flattened the stats body: the offload and conntrack
// blocks became offload_* and ct_* keys.
const SchemaAPI = "ovsxdp-api/v2"

// Envelope is the versioned header every machine-readable artifact starts
// with: the committed BENCH_*.json files and every ovs-svc response embed
// it. Profile is the measurement profile for bench artifacts ("full",
// "quick") and empty — omitted — for API responses.
type Envelope struct {
	Schema  string `json:"schema"`
	Profile string `json:"profile,omitempty"`
}

// NewEnvelope builds the header for schema "ovsxdp-<name>/v<version>".
func NewEnvelope(name string, version int, profile string) Envelope {
	return Envelope{Schema: fmt.Sprintf("ovsxdp-%s/v%d", name, version), Profile: profile}
}
