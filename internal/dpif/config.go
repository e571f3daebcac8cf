package dpif

import (
	"fmt"
	"sort"
	"strconv"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/upcall"
)

// This file is the ovs-vsctl-style configuration surface: every datapath
// tunable is an `other_config` key with a typed value, applied through
// Dpif.SetConfig (or Config.Other at Open) and read back through
// Dpif.GetConfig. The keys are the only spelling of a tunable above the
// datapath structs: callers and CLIs pass key/value pairs, never
// per-tunable structs or flags.
//
// The schema below is the single source of truth: key names, value types,
// defaults, and whether a key only has effect on the userspace (netdev)
// provider. Unknown keys and malformed values are errors on every provider;
// netdev-only keys are accepted but inert on the kernel-path providers,
// exactly as OVS's Open_vSwitch other_config column is global but only
// dpif-netdev reads the pmd-* keys.

// configValueKind types a key's value for parsing and error messages.
type configValueKind int

const (
	kindBool configValueKind = iota
	kindInt
	kindMicroseconds
	kindEnum
)

// configKeySpec describes one other_config key.
type configKeySpec struct {
	kind configValueKind
	// def is the default rendered by GetConfig when nothing was set.
	def string
	// enum lists the legal values for kindEnum keys.
	enum []string
	// netdevOnly keys configure the userspace cache hierarchy or PMD
	// machinery; the kernel-path providers validate but ignore them.
	netdevOnly bool
}

// configSchema is every supported other_config key.
var configSchema = map[string]configKeySpec{
	// Multi-PMD scaling (this package's assignment layer).
	"pmd-rxq-assign":                    {kind: kindEnum, def: "roundrobin", enum: []string{"roundrobin", "cycles"}, netdevOnly: true},
	"pmd-auto-lb":                       {kind: kindBool, def: "false", netdevOnly: true},
	"pmd-auto-lb-rebal-interval-us":     {kind: kindMicroseconds, def: "5000", netdevOnly: true},
	"pmd-auto-lb-improvement-threshold": {kind: kindInt, def: "25", netdevOnly: true},
	"tx-lock-mutex":                     {kind: kindBool, def: "false", netdevOnly: true},

	// Cache hierarchy.
	"emc-enable":          {kind: kindBool, def: "true", netdevOnly: true},
	"emc-insert-inv-prob": {kind: kindInt, def: "1", netdevOnly: true},
	"smc-enable":          {kind: kindBool, def: "false", netdevOnly: true},
	"smc-entries":         {kind: kindInt, def: "0", netdevOnly: true},
	"batch-dedup":         {kind: kindBool, def: "false", netdevOnly: true},

	// Slow path (all providers).
	"upcall-queue-cap":     {kind: kindInt, def: "0"},
	"upcall-service-us":    {kind: kindMicroseconds, def: "0"},
	"upcall-retry-base-us": {kind: kindMicroseconds, def: "0"},
	"upcall-max-retries":   {kind: kindInt, def: "0"},
	"negative-flow-ttl-us": {kind: kindMicroseconds, def: "10000"},

	// Conntrack (all providers: both datapaths carry a tracker).
	"ct-shards": {kind: kindInt, def: "8"},

	// Hardware flow offload (netdev only: the kernel-path providers'
	// simulated NICs expose no flow table, so the keys validate but stay
	// inert there, like OVS's hw-offload on an incapable device).
	"hw-offload":              {kind: kindBool, def: "false", netdevOnly: true},
	"hw-offload-table-size":   {kind: kindInt, def: "2048", netdevOnly: true},
	"hw-offload-elephant-pps": {kind: kindInt, def: "100000", netdevOnly: true},
	"hw-offload-readback-us":  {kind: kindMicroseconds, def: "1000", netdevOnly: true},
	"hw-offload-ewma-weight":  {kind: kindInt, def: "50", netdevOnly: true},
}

// ConfigKeys lists every supported other_config key, sorted (CLI help,
// documentation tests).
func ConfigKeys() []string {
	keys := make([]string, 0, len(configSchema))
	for k := range configSchema {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parseConfigValue validates and converts one value against its key's spec.
// The returned any is bool, int, or sim.Time by kind.
func parseConfigValue(key, val string) (any, error) {
	spec, ok := configSchema[key]
	if !ok {
		return nil, fmt.Errorf("dpif: unknown other_config key %q (have %v)", key, ConfigKeys())
	}
	switch spec.kind {
	case kindBool:
		switch val {
		case "true":
			return true, nil
		case "false":
			return false, nil
		default:
			return nil, fmt.Errorf("dpif: %s: want true or false, got %q", key, val)
		}
	case kindInt:
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("dpif: %s: want a non-negative integer, got %q", key, val)
		}
		return n, nil
	case kindMicroseconds:
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("dpif: %s: want microseconds as a non-negative integer, got %q", key, val)
		}
		return sim.Time(n) * sim.Microsecond, nil
	default: // kindEnum
		for _, e := range spec.enum {
			if val == e {
				return val, nil
			}
		}
		return nil, fmt.Errorf("dpif: %s: want one of %v, got %q", key, spec.enum, val)
	}
}

// applyConfig validates the whole map first (so a bad key changes nothing),
// then applies the keys in sorted order — deterministic regardless of map
// iteration — through the provider's per-key setter. Setters receive the
// parsed value and return an error for values legal in form but not in
// context.
func applyConfig(kv map[string]string, set func(key string, parsed any) error) error {
	keys := make([]string, 0, len(kv))
	parsed := make(map[string]any, len(kv))
	for k, v := range kv {
		p, err := parseConfigValue(k, v)
		if err != nil {
			return err
		}
		parsed[k] = p
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := set(k, parsed[k]); err != nil {
			return err
		}
	}
	return nil
}

// CheckConfig validates keys and values against the schema without applying
// anything — for callers that collect config before any datapath exists
// (CLI flag parsing).
func CheckConfig(kv map[string]string) error {
	return applyConfig(kv, func(string, any) error { return nil })
}

// renderBool renders a bool as the schema's value syntax.
func renderBool(v bool) string {
	if v {
		return "true"
	}
	return "false"
}

// renderMicros renders a sim.Time as integer microseconds.
func renderMicros(t sim.Time) string {
	return strconv.FormatInt(int64(t/sim.Microsecond), 10)
}

// setShared and getShared bind the keys every provider acts on the same way
// — the slow path's tunables and the conntrack shard count — to the live
// state they configure, so each key is set and read in one place whichever
// datapath is underneath. setShared reports whether key was one of them.
func setShared(uc *upcall.Config, ct *conntrack.Table, key string, v any) (bool, error) {
	switch key {
	case "upcall-queue-cap":
		uc.QueueCap = v.(int)
	case "upcall-service-us":
		uc.ServiceInterval = v.(sim.Time)
	case "upcall-retry-base-us":
		uc.RetryBase = v.(sim.Time)
	case "upcall-max-retries":
		uc.MaxRetries = v.(int)
	case "negative-flow-ttl-us":
		uc.NegativeFlowTTL = v.(sim.Time)
	case "ct-shards":
		if v.(int) < 1 {
			return true, fmt.Errorf("dpif: ct-shards must be >= 1")
		}
		ct.SetShards(v.(int))
	default:
		return false, nil
	}
	return true, nil
}

func getShared(uc *upcall.Config, ct *conntrack.Table, out map[string]string) {
	out["upcall-queue-cap"] = strconv.Itoa(uc.QueueCap)
	out["upcall-service-us"] = renderMicros(uc.ServiceInterval)
	out["upcall-retry-base-us"] = renderMicros(uc.RetryBase)
	out["upcall-max-retries"] = strconv.Itoa(uc.MaxRetries)
	out["negative-flow-ttl-us"] = renderMicros(uc.NegativeFlowTTL)
	out["ct-shards"] = strconv.Itoa(ct.NumShards())
}
