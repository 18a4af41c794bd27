package core_test

import (
	"bytes"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
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

	// The cache counts its calls of the policy: one OnHit per hit, one
	// OnInsert per insertion, an OnEvict for every eviction (and for every
	// resident a larger window replaces), a Victim call per eviction it
	// chose, and policy bypasses among all bypasses.
	pol := func(what string) uint64 { return reg.Counter("policy_lru_" + what + "_total").Value() }
	if got, want := pol("hits"), st.FullHits+st.PartialHits; got != want {
		t.Errorf("policy_lru_hits_total = %d, want %d full + partial hits", got, want)
	}
	if got := pol("inserts"); got != st.Insertions {
		t.Errorf("policy_lru_inserts_total = %d, want %d insertions", got, st.Insertions)
	}
	if got := pol("evictions"); got < st.Evictions {
		t.Errorf("policy_lru_evictions_total = %d, want >= %d evictions", got, st.Evictions)
	}
	if got := pol("victim_calls"); got < st.Evictions {
		t.Errorf("policy_lru_victim_calls_total = %d, want >= %d evictions", got, st.Evictions)
	}
	if got := pol("bypasses"); got > st.Bypasses {
		t.Errorf("policy_lru_bypasses_total = %d, want <= %d bypasses", got, st.Bypasses)
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

// countingPolicy is the reference for the cache's policy_<name>_* counters:
// a decorator that counts every call of the wrapped policy's interface.
// Embedding forwards Name and Bind, so the cache sees the wrapped policy's
// name and binds it to its geometry and clock.
type countingPolicy struct {
	uopcache.Policy
	hits, inserts, evictions, victimCalls, bypasses uint64
}

func (p *countingPolicy) OnHit(set int, slot int32, pc uint64) {
	p.hits++
	p.Policy.OnHit(set, slot, pc)
}

func (p *countingPolicy) OnInsert(set int, slot int32, pw trace.PW) {
	p.inserts++
	p.Policy.OnInsert(set, slot, pw)
}

func (p *countingPolicy) OnEvict(set int, slot int32, pc uint64) {
	p.evictions++
	p.Policy.OnEvict(set, slot, pc)
}

func (p *countingPolicy) Victim(set int, residents []uopcache.Resident, incoming trace.PW) uopcache.Decision {
	p.victimCalls++
	d := p.Policy.Victim(set, residents, incoming)
	if d.Bypass {
		p.bypasses++
	}
	return d
}

// policyFamily reads the five policy_<metric>_* counters in decorator field
// order.
func policyFamily(reg *telemetry.Registry, metric string) [5]uint64 {
	var out [5]uint64
	for i, what := range []string{"hits", "inserts", "evictions", "victim_calls", "bypasses"} {
		out[i] = reg.Counter("policy_" + metric + "_" + what + "_total").Value()
	}
	return out
}

// TestPolicyCountersMatchReference runs every policy, the nine online and
// the three offline ones, in behaviour and timing mode with the counting
// reference around it, and requires the cache's policy_<name>_* counters of
// the same run to equal the reference's counts. The behaviour runs model
// the inclusive L1i, so invalidations reach OnEvict too. The offline
// behaviour replays that apply no decisions outside the cache (belady and
// flack) must count the same as the run under the reference.
func TestPolicyCountersMatchReference(t *testing.T) {
	blocks, pws, err := core.TraceFor("kafka", 6000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.UopCache.Entries = 128 // capacity pressure: evictions and bypasses
	pt := uopcache.PreparedFor(cfg.UopCache, pws, nil)
	prof := profiles.CollectWith(pws, cfg.UopCache, profiles.SourceFLACK, profiles.CollectOptions{Prepared: pt})
	build := func(name string) uopcache.Policy {
		oo := offline.Options{Prepared: pt}
		switch name {
		case "belady":
			return offline.NewBeladySchedule(pws, cfg.UopCache, oo)
		case "foo":
			return offline.NewFLACKSchedule(pws, cfg.UopCache, oo)
		case "flack":
			oo.Features = offline.FLACKFeatures()
			return offline.NewFLACKSchedule(pws, cfg.UopCache, oo)
		}
		pol, err := core.NewPolicy(name, prof, cfg.UopCache, policy.FURBYSConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	metric := func(name string) string {
		if name == "ship++" {
			return "ship__"
		}
		return name
	}
	names := append(core.PolicyNames(), core.OfflineNames()...)
	for _, mode := range []string{"behavior", "timing"} {
		var bypasses uint64
		for _, name := range names {
			ref := &countingPolicy{Policy: build(name)}
			reg := telemetry.NewRegistry()
			tel := core.Telemetry{Metrics: reg}
			opts := core.BehaviorOptions{WithICache: true, Telemetry: tel, Prepared: pt}
			if mode == "behavior" {
				core.RunBehavior(pws, cfg, ref, opts)
			} else {
				core.RunTiming(blocks, pws, cfg, ref, tel)
			}
			want := [5]uint64{ref.hits, ref.inserts, ref.evictions, ref.victimCalls, ref.bypasses}
			if got := policyFamily(reg, metric(name)); got != want {
				t.Errorf("%s/%s: policy_%s_{hits,inserts,evictions,victim_calls,bypasses}_total = %v, reference counted %v",
					mode, name, metric(name), got, want)
			}
			if ref.hits == 0 || ref.inserts == 0 || ref.victimCalls == 0 {
				t.Errorf("%s/%s: run too trivial to compare: %v", mode, name, want)
			}
			bypasses += ref.bypasses
			if mode == "behavior" && (name == "belady" || name == "flack") {
				byName := telemetry.NewRegistry()
				opts.Telemetry = core.Telemetry{Metrics: byName}
				if _, err := core.RunBehaviorByName(name, pws, cfg, opts); err != nil {
					t.Fatal(err)
				}
				if got := policyFamily(byName, name); got != want {
					t.Errorf("offline %s replay counted %v, reference counted %v", name, got, want)
				}
			}
		}
		if bypasses == 0 {
			t.Errorf("%s: no policy bypassed, so the bypass counter went unchecked", mode)
		}
	}
}

// TestOfflineRunsReportPolicyCounters checks that the offline replays,
// profile collection and raw FOO included, report their policy_<name>_*
// family.
func TestOfflineRunsReportPolicyCounters(t *testing.T) {
	_, pws, err := core.TraceFor("kafka", 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.UopCache.Entries = 128
	pt := uopcache.PreparedFor(cfg.UopCache, pws, nil)
	dec := offline.ComputeDecisionsPrepared(nil, pt, cfg.UopCache, offline.CostVC, true, 0, 1)
	runs := []struct {
		name, metric string
		run          func(reg *telemetry.Registry)
	}{
		{"foo replay", "foo", func(reg *telemetry.Registry) {
			offline.RunFOO(pws, cfg.UopCache, offline.Options{Metrics: reg, Prepared: pt})
		}},
		{"fig10 ablation", "foo_a_vc", func(reg *telemetry.Registry) {
			offline.RunFOO(pws, cfg.UopCache, offline.Options{Features: offline.Features{Async: true, VarCost: true}, Metrics: reg, Prepared: pt})
		}},
		{"profile collection", "flack", func(reg *telemetry.Registry) {
			profiles.CollectWith(pws, cfg.UopCache, profiles.SourceFLACK, profiles.CollectOptions{Metrics: reg, Prepared: pt})
		}},
		{"plan replay", "flack", func(reg *telemetry.Registry) {
			offline.ReplayPlan(pws, cfg.UopCache, dec, offline.Options{Features: offline.FLACKFeatures(), Metrics: reg, Prepared: pt})
		}},
	}
	for _, r := range runs {
		reg := telemetry.NewRegistry()
		r.run(reg)
		got := policyFamily(reg, r.metric)
		if got[0] == 0 || got[1] == 0 || got[2] == 0 {
			t.Errorf("%s: policy_%s_{hits,inserts,evictions,victim_calls,bypasses}_total = %v, want hits, inserts and evictions", r.name, r.metric, got)
		}
		if hits, lookups := got[0], reg.Counter("uopcache_lookups_total").Value(); hits > lookups {
			t.Errorf("%s: %d policy hits in %d lookups", r.name, hits, lookups)
		}
	}
}
