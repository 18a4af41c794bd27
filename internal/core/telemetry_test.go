package core_test

import (
	"bytes"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/policy"
	"uopsim/internal/telemetry"
)

// TestBehaviorTelemetryReconciles is the acceptance check for the
// instrumentation: a behaviour-mode run with both a metrics registry and an
// unsampled event sink attached must produce (a) uopcache_* counters equal to
// the Stats struct field-for-field, (b) an event trace whose per-kind counts
// equal the same Stats fields, and (c) histograms whose observation counts
// match the corresponding counters. The cache is shrunk so the run exercises
// evictions, partial hits and coalesced misses, not just cold misses.
func TestBehaviorTelemetryReconciles(t *testing.T) {
	_, pws, err := core.TraceFor("kafka", 8000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.UopCache.Entries = 64 // force capacity pressure so evictions happen

	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf, 1)
	res, err := core.RunBehaviorByName("lru", pws, cfg, core.BehaviorOptions{
		Telemetry: core.Telemetry{Metrics: reg, Events: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Lookups == 0 || st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("run too trivial to validate reconciliation: %+v", st)
	}

	// (a) Every exposed uopcache_* counter equals its Stats field.
	counters := []struct {
		name string
		want uint64
	}{
		{"uopcache_lookups_total", st.Lookups},
		{"uopcache_full_hits_total", st.FullHits},
		{"uopcache_partial_hits_total", st.PartialHits},
		{"uopcache_misses_total", st.Misses},
		{"uopcache_uops_requested_total", st.UopsRequested},
		{"uopcache_uops_hit_total", st.UopsHit},
		{"uopcache_uops_missed_total", st.UopsMissed},
		{"uopcache_insertions_total", st.Insertions},
		{"uopcache_entries_written_total", st.EntriesWritten},
		{"uopcache_bypasses_total", st.Bypasses},
		{"uopcache_evictions_total", st.Evictions},
		{"uopcache_invalidations_total", st.Invalidations},
	}
	for _, c := range counters {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, Stats says %d", c.name, got, c.want)
		}
	}

	// (b) Event-kind counts reconcile with the same Stats fields.
	events, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kinds := telemetry.CountKinds(events)
	kindChecks := []struct {
		kind string
		want uint64
	}{
		{telemetry.EventHit, st.FullHits},
		{telemetry.EventPartial, st.PartialHits},
		{telemetry.EventMiss, st.Misses},
		{telemetry.EventInsert, st.Insertions},
		{telemetry.EventEvict, st.Evictions},
		{telemetry.EventBypass, st.Bypasses},
		{telemetry.EventInvalidate, st.Invalidations},
		{telemetry.EventCoalesce, reg.Counter("uopcache_coalesced_misses_total").Value()},
	}
	for _, c := range kindChecks {
		if got := kinds[c.kind]; got != c.want {
			t.Errorf("event kind %q count = %d, want %d", c.kind, got, c.want)
		}
	}
	if sink.Seen() != sink.Emitted() {
		t.Errorf("unsampled sink dropped events: seen %d, emitted %d", sink.Seen(), sink.Emitted())
	}

	// (c) Histogram observation counts match their driving counters.
	if got := reg.Histogram("uopcache_lookup_uops").Count(); got != st.Lookups {
		t.Errorf("uopcache_lookup_uops count = %d, want %d lookups", got, st.Lookups)
	}
	if got := reg.Histogram("uopcache_victim_cost_uops").Count(); got != st.Evictions {
		t.Errorf("uopcache_victim_cost_uops count = %d, want %d evictions", got, st.Evictions)
	}
	if got := reg.Histogram("uopcache_victim_reuse_age_lookups").Count(); got != st.Evictions {
		t.Errorf("uopcache_victim_reuse_age_lookups count = %d, want %d evictions", got, st.Evictions)
	}

	// Per-policy decision counters are wired in by RunBehavior.
	if got := reg.Counter("policy_lru_victim_calls_total").Value(); got < st.Evictions {
		t.Errorf("policy_lru_victim_calls_total = %d, want >= %d evictions", got, st.Evictions)
	}
	if reg.Counter("policy_lru_hits_total").Value() == 0 {
		t.Error("policy_lru_hits_total stayed zero")
	}

	// Perfect-icache behaviour mode never invalidates.
	if st.Invalidations != 0 {
		t.Errorf("invalidations = %d without an icache", st.Invalidations)
	}
}

// TestTimingTelemetryPublishes checks that a timing-mode run publishes the
// frontend_* aggregates alongside live uopcache_* counters.
func TestTimingTelemetryPublishes(t *testing.T) {
	blocks, pws, err := core.TraceFor("kafka", 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	res := core.RunTiming(blocks, pws, core.DefaultConfig(), policy.NewLRU(), core.Telemetry{Metrics: reg})
	if res.Frontend.Cycles == 0 {
		t.Fatal("timing run produced no cycles")
	}
	if got := reg.Counter("frontend_cycles_total").Value(); got != res.Frontend.Cycles {
		t.Errorf("frontend_cycles_total = %d, want %d", got, res.Frontend.Cycles)
	}
	if reg.Counter("uopcache_lookups_total").Value() == 0 {
		t.Error("uopcache_lookups_total stayed zero in timing mode")
	}
	if reg.Gauge("frontend_ipc").Value() <= 0 {
		t.Error("frontend_ipc gauge not published")
	}
}
