package dpif

import (
	"fmt"
	"sort"

	"ovsxdp/internal/core"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/sim"
)

// Config parameterizes Open. Options are the userspace datapath's
// construction-time ablations (the paper's O4, O5 and TSO estimates, batch
// size, contention), which no other_config key names; the zero value is the
// fully optimized datapath, and the kernel-path providers ignore it. Every
// other setting has one spelling, its key in Other.
type Config struct {
	Eng      *sim.Engine
	Pipeline *ofproto.Pipeline
	Options  core.Options
	// Other carries ovs-vsctl-style other_config key/value pairs, applied
	// through SetConfig after the provider is built — how every runtime
	// tunable (slow path, cache hierarchy, PMD placement, offload) is set
	// at open. A bad key or value fails Open.
	Other map[string]string
}

// Factory builds one provider instance.
type Factory func(cfg Config) (Dpif, error)

var registry = map[string]Factory{}

// Register adds a provider under a type name. Providers register themselves
// from init; registering a duplicate name panics, as it can only be a
// programming error.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("dpif: duplicate provider %q", name))
	}
	registry[name] = f
}

// Open builds a datapath of the named type and applies cfg.Other through
// its SetConfig.
func Open(name string, cfg Config) (Dpif, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("dpif: unknown datapath type %q (have %v)", name, Types())
	}
	d, err := f(cfg)
	if err != nil {
		return nil, err
	}
	if len(cfg.Other) > 0 {
		if err := d.SetConfig(cfg.Other); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Types lists the registered provider names, sorted.
func Types() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
