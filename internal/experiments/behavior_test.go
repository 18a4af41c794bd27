package experiments

import (
	"reflect"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
)

// TestBehaviorMemoMatchesDirectRun: a memoized behaviour run must equal a
// fresh direct run of the same policy and config, on a miss and on the hit
// that follows it. A zero FURBYSConfig and the defaults share one entry;
// another FURBYS config and another geometry each get their own.
func TestBehaviorMemoMatchesDirectRun(t *testing.T) {
	const app = "kafka"
	ctx := NewContext(2000)
	ctx.Workers = 1
	reg := telemetry.NewRegistry()
	ctx.Telemetry.Metrics = reg
	_, pws, err := ctx.Trace(app, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ctx.Profile(app, 0, profiles.SourceFLACK)
	if err != nil {
		t.Fatal(err)
	}
	direct := func(cfg core.Config, name string, fcfg policy.FURBYSConfig) core.BehaviorResult {
		if name == "flack" {
			res, err := core.RunBehaviorByName(name, pws, cfg, core.BehaviorOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		pol, err := core.NewPolicy(name, prof, cfg.UopCache, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		return core.RunBehavior(pws, cfg, pol, core.BehaviorOptions{})
	}
	counts := func() (hits, misses uint64) {
		return reg.Counter("behavior_memo_hit_total").Value(), reg.Counter("behavior_memo_miss_total").Value()
	}

	lru768 := ctx.Cfg
	lru768.UopCache.Entries, lru768.UopCache.Ways = 768, 12
	noBypass := policy.DefaultFURBYSConfig()
	noBypass.BypassEnabled = false
	cases := []struct {
		label string
		cfg   core.Config
		name  string
		fcfg  policy.FURBYSConfig
	}{
		{"lru", ctx.Cfg, "lru", policy.FURBYSConfig{}},
		{"furbys", ctx.Cfg, "furbys", policy.FURBYSConfig{}},
		{"furbys without bypass", ctx.Cfg, "furbys", noBypass},
		{"flack", ctx.Cfg, "flack", policy.FURBYSConfig{}},
		{"lru@768", lru768, "lru", policy.FURBYSConfig{}},
	}
	for i, tc := range cases {
		want := direct(tc.cfg, tc.name, tc.fcfg)
		for pass, hit := range []bool{false, true} {
			got, err := ctx.behavior(app, tc.cfg, tc.name, tc.fcfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (request %d): memoized run differs from a direct run:\n got %+v\nwant %+v", tc.label, pass+1, got, want)
			}
			hits, misses := counts()
			wantHits := uint64(i)
			if hit {
				wantHits++
			}
			if misses != uint64(i+1) || hits != wantHits {
				t.Errorf("%s (request %d): %d hits, %d misses; want %d, %d", tc.label, pass+1, hits, misses, wantHits, i+1)
			}
		}
	}
	if _, err := ctx.behavior(app, ctx.Cfg, "furbys", policy.DefaultFURBYSConfig()); err != nil {
		t.Fatal(err)
	}
	if _, misses := counts(); misses != uint64(len(cases)) {
		t.Errorf("DefaultFURBYSConfig replayed again (%d misses, want %d): it must share the zero config's entry", misses, len(cases))
	}
	if n := len(ctx.caches.behaviors); n != len(cases) {
		t.Errorf("behaviour memo holds %d runs, want %d", n, len(cases))
	}
	if base, _ := ctx.lruBaseline(app); base != direct(ctx.Cfg, "lru", policy.FURBYSConfig{}).Stats {
		t.Error("lruBaseline differs from a direct LRU run")
	}
}

// TestCampaignBehaviorRunCount pins the behaviour runs of one pass of the
// nine-CSV campaign at Workers = 1: 27 requests per app, of which 13 are
// distinct and replayed. fig8 replays LRU and its seven policies; fig10's
// FLACK column, fig12's lru@512 and furbys@512 rows, fig18's same-input
// FURBYS and fig21's bypass-on FURBYS repeat them, and every miss
// reduction asks for the LRU baseline again. fig12's four larger LRU
// geometries and fig21's bypass-off FURBYS are each asked for once. The
// other four experiments replay nothing in behaviour mode.
func TestCampaignBehaviorRunCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the nine-CSV campaign over 11 apps")
	}
	ctx := NewContext(1000)
	ctx.Workers = 1
	reg, _ := runMetered(t, ctx, []string{"tab1", "tab2", "fig2", "fig8", "fig10", "fig12", "fig14", "fig18", "fig21"})
	hits, misses := reg.Counter("behavior_memo_hit_total").Value(), reg.Counter("behavior_memo_miss_total").Value()
	apps := uint64(len(ctx.AppList()))
	if misses != 13*apps || hits+misses != 27*apps {
		t.Errorf("campaign replayed %d of %d requested behaviour runs, want %d of %d", misses, hits+misses, 13*apps, 27*apps)
	}
	if n := len(ctx.caches.behaviors); uint64(n) != misses {
		t.Errorf("behaviour memo holds %d runs after %d replays", n, misses)
	}
	if got := ctx.MemoTraffic()["behavior_runs"]; got.Hits != hits || got.Misses != misses {
		t.Errorf("MemoTraffic behavior_runs = %+v, want %d hits and %d misses", got, hits, misses)
	}
}
