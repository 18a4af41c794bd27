// Hot-path cost test: the acceptance bar for the instrumentation is that a
// cache with no sink (and optionally live metrics) pays zero allocations per
// lookup. This lives in telemetry's external test package so it can import
// uopcache without a cycle.
//
// These AllocsPerRun measurements are the dynamic half of the hot-path
// contract; the static half is simlint's hotpath analyzer, which checks
// every //simlint:hotpath-marked function (uopcache Lookup/Insert, policy
// OnHit/Victim, frontend servePW) and everything it statically calls — paths
// no test happens to drive included. See ANALYSIS.md.
package telemetry_test

import (
	"testing"

	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// nopPolicy isolates the instrumentation cost from any policy bookkeeping.
type nopPolicy struct{}

func (nopPolicy) Name() string                  { return "nop" }
func (nopPolicy) Bind(uopcache.Geometry)        {}
func (nopPolicy) OnHit(int, int32, uint64)      {}
func (nopPolicy) OnInsert(int, int32, trace.PW) {}
func (nopPolicy) OnEvict(int, int32, uint64)    {}
func (nopPolicy) Victim(_ int, residents []uopcache.Resident, _ trace.PW) uopcache.Decision {
	return uopcache.Decision{Victim: residents[0].Slot}
}

func newHotCache() (*uopcache.Cache, trace.PW, trace.PW) {
	cfg := uopcache.Config{Entries: 64, Ways: 4, UopsPerEntry: 8}
	c := uopcache.New(cfg, nopPolicy{})
	hot := trace.PW{Start: 0x1000, Bytes: 24, NumInst: 4, NumUops: 6}
	cold := trace.PW{Start: 0x2000, Bytes: 24, NumInst: 4, NumUops: 6}
	c.Insert(hot)
	return c, hot, cold
}

func TestLookupNoSinkNoAllocs(t *testing.T) {
	c, hot, cold := newHotCache()
	if got := testing.AllocsPerRun(1000, func() { c.Lookup(hot) }); got != 0 {
		t.Errorf("hit path with telemetry off: %.1f allocs/lookup, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() { c.Lookup(cold) }); got != 0 {
		t.Errorf("miss path with telemetry off: %.1f allocs/lookup, want 0", got)
	}
}

func TestLookupWithMetricsNoAllocs(t *testing.T) {
	c, hot, cold := newHotCache()
	c.AttachMetrics(telemetry.NewRegistry())
	if got := testing.AllocsPerRun(1000, func() { c.Lookup(hot) }); got != 0 {
		t.Errorf("hit path with metrics attached: %.1f allocs/lookup, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() { c.Lookup(cold) }); got != 0 {
		t.Errorf("miss path with metrics attached: %.1f allocs/lookup, want 0", got)
	}
}

func BenchmarkLookupNoSink(b *testing.B) {
	c, hot, _ := newHotCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(hot)
	}
}

func BenchmarkLookupWithMetrics(b *testing.B) {
	c, hot, _ := newHotCache()
	c.AttachMetrics(telemetry.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(hot)
	}
}
