package dpif

import (
	"reflect"
	"strings"
	"testing"
)

// TestCountersCoverStats gives every numeric field of Stats its own
// sentinel and requires exactly one Counters row to read it back, so a
// field added to Stats without a row (or a row reading the wrong field)
// fails here. Names must be unique, and a row ends in "_total" iff it is
// not a gauge.
func TestCountersCoverStats(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	sentinel := map[uint64]string{}
	for i := 0; i < v.NumField(); i++ {
		f, n := v.Field(i), uint64(1000+i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(n)
		case reflect.Int:
			f.SetInt(int64(n))
		default:
			continue
		}
		sentinel[n] = v.Type().Field(i).Name
	}
	if len(Counters) != len(sentinel) {
		t.Errorf("%d Counters rows for %d numeric Stats fields", len(Counters), len(sentinel))
	}
	readers := map[string][]string{}
	names := map[string]bool{}
	for _, c := range Counters {
		field, ok := sentinel[c.Get(&s)]
		if !ok {
			t.Errorf("row %s reads %d, no field's sentinel", c.Name, c.Get(&s))
		}
		readers[field] = append(readers[field], c.Name)
		if names[c.Name] {
			t.Errorf("row name %s declared twice", c.Name)
		}
		names[c.Name] = true
		if strings.HasSuffix(c.Name, "_total") == c.Gauge {
			t.Errorf("row %s: gauge %v, but a name ends in _total iff it is a counter", c.Name, c.Gauge)
		}
		if c.Help == "" {
			t.Errorf("row %s has no help text", c.Name)
		}
	}
	for _, field := range sentinel {
		if len(readers[field]) != 1 {
			t.Errorf("Stats.%s is read by rows %v, want exactly one", field, readers[field])
		}
	}
}

// TestInvariants: each ledger Invariants states fails on its own and is
// named in the error.
func TestInvariants(t *testing.T) {
	ok := Stats{Hits: 5, SMCHits: 5,
		OffloadInstalls: 6, OffloadEvictions: 1, OffloadUninstalls: 2, OffloadLive: 3,
		CtCreated: 10, CtExpired: 4, CtEarlyDrops: 1, CtEvictions: 2, CtConns: 3}
	if err := ok.Invariants(); err != nil {
		t.Fatalf("balanced ledgers: %v", err)
	}
	for _, c := range []struct {
		name  string
		spoil func(*Stats)
	}{
		{"offload ledger", func(s *Stats) { s.OffloadLive++ }},
		{"ct ledger", func(s *Stats) { s.CtExpired++ }},
		{"smc hits", func(s *Stats) { s.SMCHits++ }},
	} {
		s := ok
		c.spoil(&s)
		err := s.Invariants()
		if err == nil || !strings.Contains(err.Error(), c.name) || strings.Count(err.Error(), "\n") != 0 {
			t.Errorf("%s broken: Invariants() = %v", c.name, err)
		}
	}
}
