package core_test

import (
	"reflect"
	"testing"

	"uopsim/internal/artifact"
	"uopsim/internal/core"
	"uopsim/internal/offline"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// TestPreparedBehaviorEquivalence pins the one-trace contract: a nil
// Prepared (the run builds its own) and a shared one give the identical
// result for every policy name, per-lookup records included. The shared
// run is the one all experiments take, so this is the guard behind the
// byte-identical-CSV acceptance criterion.
func TestPreparedBehaviorEquivalence(t *testing.T) {
	cfg := core.DefaultConfig()
	_, pws, err := core.TraceFor("kafka", 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt := uopcache.Prepare(cfg.UopCache, pws)
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plans := offline.NewPlanStore(store)
	for _, name := range allPolicies() {
		for _, record := range []bool{false, true} {
			built := runBehavior(t, name, pws, cfg, core.BehaviorOptions{RecordPerLookup: record})
			shared := runBehavior(t, name, pws, cfg, core.BehaviorOptions{
				RecordPerLookup: record, Prepared: pt, Plans: plans,
			})
			if !reflect.DeepEqual(built, shared) {
				t.Errorf("%s (record=%v): shared trace diverged:\nnil:    %+v\nshared: %+v",
					name, record, built.Stats, shared.Stats)
			}
		}
	}
	// The plan cache must have actually been exercised by foo/flack above.
	if st := store.Stats()["plan"]; st.Hits+st.Misses == 0 {
		t.Error("plan cache saw no traffic across foo/flack runs")
	}
}

// TestMismatchedPreparedIgnored: a PreparedTrace built under a geometry
// with a different set count, or over a different slice, must be rebuilt
// rather than trusted — for every policy, wrong columns must never leak
// into a run.
func TestMismatchedPreparedIgnored(t *testing.T) {
	cfg := core.DefaultConfig()
	_, pws, err := core.TraceFor("kafka", 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg.UopCache
	other.Ways = cfg.UopCache.Ways / 2
	wrongGeom := uopcache.Prepare(other, pws)
	_, otherPWs, err := core.TraceFor("kafka", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrongSlice := uopcache.Prepare(cfg.UopCache, otherPWs)
	for _, name := range allPolicies() {
		want := runBehavior(t, name, pws, cfg, core.BehaviorOptions{RecordPerLookup: true})
		for label, pt := range map[string]*trace.PreparedTrace{
			"geometry": wrongGeom,
			"slice":    wrongSlice,
		} {
			got := runBehavior(t, name, pws, cfg, core.BehaviorOptions{RecordPerLookup: true, Prepared: pt})
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: mismatched prepared trace (%s) changed the result", name, label)
			}
		}
	}
}

// allPolicies lists the nine online and three offline policy names.
func allPolicies() []string {
	return append(append([]string{}, core.PolicyNames()...), core.OfflineNames()...)
}

func runBehavior(t *testing.T, name string, pws []trace.PW, cfg core.Config, opts core.BehaviorOptions) core.BehaviorResult {
	t.Helper()
	r, err := core.RunBehaviorByName(name, pws, cfg, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

// TestPreparedTimingEquivalence: the timing model with prepared/plan
// attachments produces the identical result for the offline policies.
func TestPreparedTimingEquivalence(t *testing.T) {
	cfg := core.DefaultConfig()
	blocks, pws, err := core.TraceFor("kafka", 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt := uopcache.Prepare(cfg.UopCache, pws)
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plans := offline.NewPlanStore(store)
	for _, name := range []string{"belady", "foo", "flack", "lru"} {
		plain, err := core.RunTimingByName(name, blocks, pws, cfg, nil)
		if err != nil {
			t.Fatalf("%s (plain): %v", name, err)
		}
		prep, err := core.RunTimingByNameWith(name, blocks, pws, cfg, nil, core.TimingOptions{
			Prepared: pt, Plans: plans,
		})
		if err != nil {
			t.Fatalf("%s (prepared): %v", name, err)
		}
		if !reflect.DeepEqual(plain, prep) {
			t.Errorf("%s: prepared timing diverged:\nplain: %+v\nprep:  %+v", name, plain, prep)
		}
	}
}
