package smc

import (
	"testing"

	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
)

// BenchmarkSMCLookup measures the wall-clock hit path: bucket probe,
// indirection load, and megaflow verification.
func BenchmarkSMCLookup(b *testing.B) {
	cls := dpcls.New(0)
	c := New(1<<16, 0)
	const flows = 4096
	keys := make([]flow.Key, flows)
	e := cls.Insert(keyN(0), flow.NewMaskBuilder().InPort().Build(), nil)
	for i := range keys {
		keys[i] = keyN(i)
		c.Insert(keys[i], e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(keys[i%flows])
	}
}

// BenchmarkSMCInsert measures the steady-state insert path (signature
// overwrite of an already-registered megaflow).
func BenchmarkSMCInsert(b *testing.B) {
	cls := dpcls.New(0)
	c := New(1<<16, 0)
	const flows = 4096
	keys := make([]flow.Key, flows)
	e := cls.Insert(keyN(0), flow.NewMaskBuilder().InPort().Build(), nil)
	for i := range keys {
		keys[i] = keyN(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(keys[i%flows], e)
	}
}
