package dpif

import (
	"fmt"
	"sort"
	"strconv"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/core"
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
// configTable below is the single source of truth, one row per key: name,
// value type, default, whether the key only has effect on the userspace
// (netdev) provider, and the bindings that apply it to and read it from the
// live datapath. Unknown keys and malformed values are errors on every
// provider; netdev-only keys are accepted but inert on the kernel-path
// providers, exactly as OVS's Open_vSwitch other_config column is global but
// only dpif-netdev reads the pmd-* keys.

// configValueKind types a key's value for parsing, rendering and error
// messages.
type configValueKind int

const (
	kindBool         configValueKind = iota // Go bool
	kindInt                                 // Go int, >= 0
	kindMicroseconds                        // sim.Time, whole microseconds >= 0
	kindEnum                                // Go string, one of enum
)

// configTarget is the live state a provider's keys bind to: the slow path's
// tunables and the conntrack table every datapath carries, and the userspace
// datapath on netdev. On the kernel-path providers dp is nil, netdev-only
// rows are not applied, and inert remembers what was set so GetConfig echoes
// it back, as OVS's global other_config column does even for keys this
// datapath ignores.
type configTarget struct {
	uc    *upcall.Config
	ct    *conntrack.Table
	dp    *core.Datapath
	inert map[string]string
}

// configKey is one other_config key. set receives the parsed value (typed by
// kind); get returns the live value in the same type.
type configKey struct {
	name string
	kind configValueKind
	// def is what GetConfig renders on a provider the key is inert on.
	def string
	// enum lists the legal values of a kindEnum key.
	enum []string
	// min is the smallest number (or count of microseconds) a provider that
	// acts on the key accepts: 1 where the unit has no meaningful zero.
	min int
	// netdevOnly keys configure the userspace cache hierarchy, PMD
	// machinery or NIC flow table; the kernel-path providers validate but
	// ignore them.
	netdevOnly bool
	set        func(t *configTarget, v any)
	get        func(t *configTarget) any
}

// setOffload edits one field of the offload settings and reconfigures the
// engine with the result.
func setOffload(t *configTarget, edit func(*core.OffloadOptions)) {
	o := t.dp.Opts.Offload
	edit(&o)
	t.dp.ConfigureOffload(o)
}

// configTable is every supported other_config key; adding or removing a key
// is a one-row edit.
var configTable = []configKey{
	// Multi-PMD scaling (core's assignment layer).
	{name: "pmd-rxq-assign", kind: kindEnum, def: "roundrobin", enum: []string{"roundrobin", "cycles"}, netdevOnly: true,
		set: func(t *configTarget, v any) {
			p, _ := core.ParseAssignPolicy(v.(string)) // cannot fail: enum admits only the policies' names
			t.dp.Opts.RxqAssign = p
			t.dp.SetAssignPolicy(p)
		},
		get: func(t *configTarget) any { return t.dp.AssignPolicyInEffect().String() }},
	{name: "pmd-auto-lb", kind: kindBool, def: "false", netdevOnly: true,
		set: func(t *configTarget, v any) {
			t.dp.Opts.AutoLB = v.(bool)
			t.dp.ConfigureAutoLB(v.(bool), 0, -1)
		},
		get: func(t *configTarget) any { return t.dp.AutoLBEnabled() }},
	{name: "pmd-auto-lb-rebal-interval-us", kind: kindMicroseconds, def: "5000", min: 1, netdevOnly: true,
		set: func(t *configTarget, v any) {
			t.dp.Opts.AutoLBInterval = v.(sim.Time)
			t.dp.ConfigureAutoLB(t.dp.AutoLBEnabled(), v.(sim.Time), -1)
		},
		get: func(t *configTarget) any { interval, _ := t.dp.AutoLBSettings(); return interval }},
	{name: "pmd-auto-lb-improvement-threshold", kind: kindInt, def: "25", netdevOnly: true,
		set: func(t *configTarget, v any) {
			t.dp.Opts.AutoLBThresholdPct = v.(int)
			t.dp.ConfigureAutoLB(t.dp.AutoLBEnabled(), 0, v.(int))
		},
		get: func(t *configTarget) any { _, threshold := t.dp.AutoLBSettings(); return threshold }},

	// Cache hierarchy; toggles take effect on the next packet.
	{name: "emc-enable", kind: kindBool, def: "true", netdevOnly: true,
		set: func(t *configTarget, v any) { t.dp.Opts.EMC = v.(bool) },
		get: func(t *configTarget) any { return t.dp.Opts.EMC }},
	{name: "smc-enable", kind: kindBool, def: "false", netdevOnly: true,
		set: func(t *configTarget, v any) { t.dp.ConfigureSMC(v.(bool)) },
		get: func(t *configTarget) any { return t.dp.Opts.SMC }},

	// Slow path (all providers).
	{name: "upcall-queue-cap", kind: kindInt, def: "0",
		set: func(t *configTarget, v any) { t.uc.QueueCap = v.(int) },
		get: func(t *configTarget) any { return t.uc.QueueCap }},
	{name: "upcall-service-us", kind: kindMicroseconds, def: "0",
		set: func(t *configTarget, v any) { t.uc.ServiceInterval = v.(sim.Time) },
		get: func(t *configTarget) any { return t.uc.ServiceInterval }},
	{name: "upcall-retry-base-us", kind: kindMicroseconds, def: "0",
		set: func(t *configTarget, v any) { t.uc.RetryBase = v.(sim.Time) },
		get: func(t *configTarget) any { return t.uc.RetryBase }},

	// Conntrack (all providers: both datapaths carry a tracker).
	{name: "ct-shards", kind: kindInt, def: "8", min: 1,
		set: func(t *configTarget, v any) { t.ct.SetShards(v.(int)) },
		get: func(t *configTarget) any { return t.ct.NumShards() }},

	// Hardware flow offload (netdev only: the kernel-path providers'
	// simulated NICs expose no flow table, so the keys validate but stay
	// inert there, like OVS's hw-offload on an incapable device).
	{name: "hw-offload", kind: kindBool, def: "false", netdevOnly: true,
		set: func(t *configTarget, v any) {
			setOffload(t, func(o *core.OffloadOptions) { o.Enable = v.(bool) })
		},
		get: func(t *configTarget) any { return t.dp.OffloadSettings().Enable }},
	{name: "hw-offload-table-size", kind: kindInt, def: "2048", min: 1, netdevOnly: true,
		set: func(t *configTarget, v any) {
			setOffload(t, func(o *core.OffloadOptions) { o.TableSize = v.(int) })
		},
		get: func(t *configTarget) any { return t.dp.OffloadSettings().TableSize }},
	{name: "hw-offload-elephant-pps", kind: kindInt, def: "100000", min: 1, netdevOnly: true,
		set: func(t *configTarget, v any) {
			setOffload(t, func(o *core.OffloadOptions) { o.ElephantPPS = v.(int) })
		},
		get: func(t *configTarget) any { return t.dp.OffloadSettings().ElephantPPS }},
	{name: "hw-offload-readback-us", kind: kindMicroseconds, def: "1000", min: 1, netdevOnly: true,
		set: func(t *configTarget, v any) {
			setOffload(t, func(o *core.OffloadOptions) { o.ReadbackInterval = v.(sim.Time) })
		},
		get: func(t *configTarget) any { return t.dp.OffloadSettings().ReadbackInterval }},
}

// configRow finds a key's row; nil when the key is unknown.
func configRow(name string) *configKey {
	for i := range configTable {
		if configTable[i].name == name {
			return &configTable[i]
		}
	}
	return nil
}

// ConfigKeys lists every supported other_config key, sorted (CLI help,
// documentation tests).
func ConfigKeys() []string {
	keys := make([]string, 0, len(configTable))
	for i := range configTable {
		keys = append(keys, configTable[i].name)
	}
	sort.Strings(keys)
	return keys
}

// parse validates and converts one value against the key's kind and, for the
// numeric kinds, the lowest value the caller accepts. The returned any is
// bool, int, sim.Time or string by kind.
func (k *configKey) parse(val string, lowest int) (any, error) {
	switch k.kind {
	case kindBool:
		switch val {
		case "true":
			return true, nil
		case "false":
			return false, nil
		default:
			return nil, fmt.Errorf("dpif: %s: want true or false, got %q", k.name, val)
		}
	case kindInt, kindMicroseconds:
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			what := "a non-negative integer"
			if k.kind == kindMicroseconds {
				what = "microseconds as a non-negative integer"
			}
			return nil, fmt.Errorf("dpif: %s: want %s, got %q", k.name, what, val)
		}
		if n < lowest {
			return nil, fmt.Errorf("dpif: %s: must be >= %d", k.name, lowest)
		}
		if k.kind == kindMicroseconds {
			return sim.Time(n) * sim.Microsecond, nil
		}
		return n, nil
	default: // kindEnum
		for _, e := range k.enum {
			if val == e {
				return val, nil
			}
		}
		return nil, fmt.Errorf("dpif: %s: want one of %v, got %q", k.name, k.enum, val)
	}
}

// renderConfigValue is parse's inverse over the typed values get returns.
func renderConfigValue(v any) string {
	switch v := v.(type) {
	case bool:
		return strconv.FormatBool(v)
	case int:
		return strconv.Itoa(v)
	case sim.Time:
		return strconv.FormatInt(int64(v/sim.Microsecond), 10)
	default:
		return v.(string)
	}
}

// configSetting is one validated key of a SetConfig call.
type configSetting struct {
	key *configKey
	raw string
	val any
}

// parseConfig validates a whole map against the table — and, given a target,
// against the minimum of each key the target acts on — and returns the
// settings in sorted key order, deterministic regardless of map iteration.
func parseConfig(kv map[string]string, t *configTarget) ([]configSetting, error) {
	out := make([]configSetting, 0, len(kv))
	for name, raw := range kv {
		k := configRow(name)
		if k == nil {
			return nil, fmt.Errorf("dpif: unknown other_config key %q (have %v)", name, ConfigKeys())
		}
		lowest := 0
		if t != nil && t.live(k) {
			lowest = k.min
		}
		val, err := k.parse(raw, lowest)
		if err != nil {
			return nil, err
		}
		out = append(out, configSetting{key: k, raw: raw, val: val})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key.name < out[j].key.name })
	return out, nil
}

// CheckConfig validates keys and values against the table without applying
// anything — for callers that collect config before any datapath exists
// (CLI flag parsing).
func CheckConfig(kv map[string]string) error {
	_, err := parseConfig(kv, nil)
	return err
}

// live reports whether k acts on this target rather than being echoed.
func (t *configTarget) live(k *configKey) bool { return t.dp != nil || !k.netdevOnly }

// set is every provider's SetConfig: the whole map is validated first (so a
// bad key or value changes nothing), then each key is applied through its
// row.
func (t *configTarget) set(kv map[string]string) error {
	settings, err := parseConfig(kv, t)
	if err != nil {
		return err
	}
	for _, s := range settings {
		if t.live(s.key) {
			s.key.set(t, s.val)
		} else {
			t.inert[s.key.name] = s.raw
		}
	}
	return nil
}

// get is every provider's GetConfig: the live value of each key the target
// acts on, and the remembered set (or the default) of each it does not.
func (t *configTarget) get() map[string]string {
	out := make(map[string]string, len(configTable))
	for i := range configTable {
		k := &configTable[i]
		if t.live(k) {
			out[k.name] = renderConfigValue(k.get(t))
		} else if raw, ok := t.inert[k.name]; ok {
			out[k.name] = raw
		} else {
			out[k.name] = k.def
		}
	}
	return out
}
