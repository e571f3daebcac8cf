package dpif

import (
	"fmt"
	"sort"

	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/sim"
)

// UpcallConfig bounds and paces the slow path, provider-independently:
// QueueCap bounds the queue of packets awaiting translation (zero keeps
// the unbounded inline upcall), ServiceInterval is the handler's
// per-upcall service time, and RetryBase/MaxRetries govern the
// exponential-backoff retry of transient translation faults.
type UpcallConfig struct {
	QueueCap        int
	ServiceInterval sim.Time
	RetryBase       sim.Time
	MaxRetries      int
}

// CacheConfig tunes the userspace cache hierarchy, provider-independently
// expressed so callers need not import core: SMC enables the signature
// match cache (smc-enable=true), SMCEntries overrides its capacity (zero
// uses the OVS default), EMCInsertInvProb is the inverse EMC insertion
// probability (emc-insert-inv-prob; <= 1 inserts always), and BatchDedup
// enables batch-aware classification. The kernel-path providers (netlink,
// ebpf) have no EMC or SMC and ignore it, exactly as the real options table
// only reaches dpif-netdev.
type CacheConfig struct {
	SMC              bool
	SMCEntries       int
	EMCInsertInvProb int
	BatchDedup       bool
}

// Config parameterizes Open. Options carries provider-specific tunables
// (core.Options for the netdev provider); providers that take none ignore
// it. Upcall applies to every provider; Cache applies to providers with a
// userspace cache hierarchy.
type Config struct {
	Eng      *sim.Engine
	Pipeline *ofproto.Pipeline
	Options  any
	Upcall   UpcallConfig
	Cache    CacheConfig
	// Other carries ovs-vsctl-style other_config key/value pairs, applied
	// through SetConfig after the provider is built — the preferred
	// configuration surface; Options/Upcall/Cache remain as compatibility
	// shims. A bad key or value fails Open.
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
