package dpif_test

import (
	"reflect"
	"strings"
	"testing"

	"ovsxdp/internal/dpif"
	"ovsxdp/internal/sim"
)

// allProviders is the full registry; every SetConfig contract below must
// hold identically across them.
var allProviders = []string{"netdev", "netlink", "ebpf"}

func openProvider(t *testing.T, name string, other map[string]string) dpif.Dpif {
	t.Helper()
	d, err := dpif.Open(name, dpif.Config{Eng: sim.NewEngine(1),
		Pipeline: forwardPipeline(), Other: other})
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	return d
}

// TestSetConfigUnknownKeyEveryProvider: a key the table does not hold is an
// error that names it and changes nothing. The six keys PR 22 retired and the
// one PR 24 did (each had one value in use; see EXPERIMENTS.md) are unknown
// like any other.
func TestSetConfigUnknownKeyEveryProvider(t *testing.T) {
	unknown := map[string]string{
		"no-such-key":            "1",
		"batch-dedup":            "true",
		"emc-insert-inv-prob":    "100",
		"smc-entries":            "4096",
		"tx-lock-mutex":          "true",
		"hw-offload-ewma-weight": "25",
		"negative-flow-ttl-us":   "5000",
		"upcall-max-retries":     "3",
	}
	for _, name := range allProviders {
		d := openProvider(t, name, nil)
		before := d.GetConfig()
		for key, val := range unknown {
			err := d.SetConfig(map[string]string{key: val})
			if err == nil {
				t.Fatalf("%s: unknown key %q accepted", name, key)
			}
			if !strings.Contains(err.Error(), key) {
				t.Fatalf("%s: error should name the key %q: %v", name, key, err)
			}
			if after := d.GetConfig(); !reflect.DeepEqual(before, after) {
				t.Fatalf("%s: failed SetConfig of %q changed state:\nbefore %v\nafter  %v",
					name, key, before, after)
			}
		}
	}
}

func TestSetConfigTypedParseErrors(t *testing.T) {
	cases := []map[string]string{
		{"pmd-auto-lb": "maybe"},
		{"ct-shards": "-3"},
		{"pmd-rxq-assign": "random"},
		{"upcall-queue-cap": "many"},
		{"pmd-auto-lb-rebal-interval-us": "-1"},
	}
	for _, name := range allProviders {
		d := openProvider(t, name, nil)
		for _, kv := range cases {
			if err := d.SetConfig(kv); err == nil {
				t.Fatalf("%s: accepted %v", name, kv)
			}
		}
	}
}

// TestSetConfigAllOrNothing: one bad key in a batch must leave every good
// key unapplied.
func TestSetConfigAllOrNothing(t *testing.T) {
	for _, name := range allProviders {
		d := openProvider(t, name, nil)
		err := d.SetConfig(map[string]string{
			"upcall-queue-cap": "64",
			"bogus":            "1",
		})
		if err == nil {
			t.Fatalf("%s: batch with bad key accepted", name)
		}
		if got := d.GetConfig()["upcall-queue-cap"]; got != "0" {
			t.Fatalf("%s: good key applied despite failed batch: %q", name, got)
		}
	}
	// A value out of range fails the batch the same way, though the key
	// before it in sorted order was fine.
	d := openProvider(t, "netdev", nil)
	if err := d.SetConfig(map[string]string{"hw-offload": "true", "hw-offload-table-size": "0"}); err == nil {
		t.Fatal("netdev: hw-offload-table-size=0 accepted")
	}
	if got := d.GetConfig()["hw-offload"]; got != "false" {
		t.Fatalf("netdev: hw-offload applied despite failed batch: %q", got)
	}
}

// nonDefault gives every other_config key a legal value that differs from
// its default. TestSetConfigRoundTrip fails on a key missing here, so a new
// table row needs an entry too.
var nonDefault = map[string]string{
	"pmd-rxq-assign":                    "cycles",
	"pmd-auto-lb":                       "true",
	"pmd-auto-lb-rebal-interval-us":     "2500",
	"pmd-auto-lb-improvement-threshold": "10",
	"emc-enable":                        "false",
	"smc-enable":                        "true",
	"upcall-queue-cap":                  "128",
	"ct-shards":                         "4",
	"hw-offload":                        "true",
	"hw-offload-table-size":             "512",
	"hw-offload-elephant-pps":           "5000",
	"hw-offload-readback-us":            "250",
}

// kernelLive are the keys the kernel-path providers act on; every other key
// is netdev-only and must be inert there.
var kernelLive = map[string]bool{
	"upcall-queue-cap": true, "ct-shards": true,
}

// TestSetConfigRoundTrip walks every key of the table on every provider:
// set alone to a non-default value, it reads back through GetConfig and no
// other key moves. On netlink and ebpf the netdev-only keys are echoed but
// inert: with all of them set, the shared conformance scenario observes
// exactly what it observes at the defaults.
func TestSetConfigRoundTrip(t *testing.T) {
	keys := dpif.ConfigKeys()
	if len(keys) != len(nonDefault) {
		t.Fatalf("table has %d keys, nonDefault %d", len(keys), len(nonDefault))
	}
	inert := map[string]string{}
	defaults := openProvider(t, "netdev", nil).GetConfig()
	for _, name := range allProviders {
		// A row's default is what the live netdev datapath starts at.
		if got := openProvider(t, name, nil).GetConfig(); !reflect.DeepEqual(got, defaults) {
			t.Errorf("%s: defaults %v differ from netdev's %v", name, got, defaults)
		}
		for _, k := range keys {
			v, ok := nonDefault[k]
			if !ok {
				t.Fatalf("no non-default value for key %q", k)
			}
			if !kernelLive[k] {
				inert[k] = v
			}
			d := openProvider(t, name, nil)
			before := d.GetConfig()
			if before[k] == v {
				t.Fatalf("%s: %s=%q is the default, not a second value", name, k, v)
			}
			if err := d.SetConfig(map[string]string{k: v}); err != nil {
				t.Fatalf("%s: SetConfig(%s=%s): %v", name, k, v, err)
			}
			after := d.GetConfig()
			if after[k] != v {
				t.Errorf("%s: %s = %q after set, want %q", name, k, after[k], v)
			}
			for other, was := range before {
				if other != k && after[other] != was {
					t.Errorf("%s: setting %s moved %s: %q -> %q", name, k, other, was, after[other])
				}
			}
		}
	}
	for _, name := range []string{"netlink", "ebpf"} {
		def := runScenario(t, name, nil)
		set := runScenario(t, name, func(cfg *dpif.Config) { cfg.Other = inert })
		if !reflect.DeepEqual(def, set) {
			t.Errorf("%s: netdev-only keys are not inert:\n  default %+v\n  set     %+v", name, def, set)
		}
	}
}

// TestNetdevOnlyKeysInertOnKernel: the kernel-path providers accept pmd-*
// and cache keys (the other_config column is global) but only act on the
// slow-path keys.
func TestNetdevOnlyKeysInertOnKernel(t *testing.T) {
	for _, name := range []string{"netlink", "ebpf"} {
		d := openProvider(t, name, nil)
		err := d.SetConfig(map[string]string{
			"pmd-rxq-assign":   "cycles",
			"smc-enable":       "true",
			"upcall-queue-cap": "32",
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := d.GetConfig()
		if got["pmd-rxq-assign"] != "cycles" || got["smc-enable"] != "true" {
			t.Fatalf("%s: inert keys not echoed back: %v", name, got)
		}
		if got["upcall-queue-cap"] != "32" {
			t.Fatalf("%s: live key not applied: %v", name, got)
		}
	}
}

// TestOpenAppliesOther: Config.Other reaches SetConfig at open, and a bad
// key fails the Open.
func TestOpenAppliesOther(t *testing.T) {
	d := openProvider(t, "netdev", map[string]string{"pmd-rxq-assign": "cycles"})
	if got := d.GetConfig()["pmd-rxq-assign"]; got != "cycles" {
		t.Fatalf("Other not applied at open: %q", got)
	}
	for _, name := range allProviders {
		_, err := dpif.Open(name, dpif.Config{Eng: sim.NewEngine(1),
			Pipeline: forwardPipeline(), Other: map[string]string{"nope": "1"}})
		if err == nil {
			t.Fatalf("%s: Open with bad Other key succeeded", name)
		}
	}
}

// TestCheckConfig validates without a datapath.
func TestCheckConfig(t *testing.T) {
	if err := dpif.CheckConfig(map[string]string{"pmd-auto-lb": "true"}); err != nil {
		t.Fatal(err)
	}
	if err := dpif.CheckConfig(map[string]string{"pmd-auto-lb": "si"}); err == nil {
		t.Fatal("bad value passed CheckConfig")
	}
}

// TestGetConfigListsEverySchemaKey: GetConfig must be total over the schema
// on every provider, so `ovsctl get` output is uniform.
func TestGetConfigListsEverySchemaKey(t *testing.T) {
	keys := dpif.ConfigKeys()
	for _, name := range allProviders {
		got := openProvider(t, name, nil).GetConfig()
		for _, k := range keys {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: GetConfig missing %q", name, k)
			}
		}
		if len(got) != len(keys) {
			t.Errorf("%s: GetConfig has %d keys, schema has %d", name, len(got), len(keys))
		}
	}
}
