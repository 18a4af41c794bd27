package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
)

// TestTimingMemoMatchesDirectRun: a memoized timing run must equal a fresh
// direct core.RunTiming of the same policy and config, on a miss and on the
// hit that follows it; configs that differ in a single field must each get
// their own entry.
func TestTimingMemoMatchesDirectRun(t *testing.T) {
	const app = "kafka"
	ctx := NewContext(2000)
	ctx.Workers = 1
	reg := telemetry.NewRegistry()
	ctx.Telemetry.Metrics = reg
	blocks, pws, err := ctx.Trace(app, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ctx.Profile(app, 0, profiles.SourceFLACK)
	if err != nil {
		t.Fatal(err)
	}
	direct := func(cfg core.Config, name string) core.TimingResult {
		pol, err := core.NewPolicy(name, prof, cfg.UopCache, policy.FURBYSConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return core.RunTiming(blocks, pws, cfg, pol, core.Telemetry{})
	}
	counts := func() (hits, misses uint64) {
		return reg.Counter("timing_memo_hit_total").Value(), reg.Counter("timing_memo_miss_total").Value()
	}

	perfectUop := ctx.Cfg
	perfectUop.Frontend.PerfectUopCache = true
	lru768 := ctx.Cfg
	lru768.UopCache.Entries, lru768.UopCache.Ways = 768, 12
	cases := []struct {
		label string
		cfg   core.Config
		name  string
	}{
		{"lru", ctx.Cfg, "lru"},
		{"furbys", ctx.Cfg, "furbys"},
		{"lru perfect uop cache", perfectUop, "lru"},
		{"lru@768", lru768, "lru"},
	}
	for i, tc := range cases {
		want := direct(tc.cfg, tc.name)
		for pass, hit := range []bool{false, true} {
			got, err := ctx.timing(app, tc.cfg, tc.name)
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

	// One field apart: each variant must be simulated, not served from the
	// base config's entry.
	perfectBP := ctx.Cfg
	perfectBP.Frontend.PerfectBP = true
	nonInclusive := ctx.Cfg
	nonInclusive.Frontend.NonInclusive = true
	energy := ctx.Cfg
	energy.Energy.DecodePerUop *= 2
	hist := ctx.Cfg
	hist.Branch.HistLens[0]++
	for _, v := range []struct {
		label string
		cfg   core.Config
	}{{"PerfectBP", perfectBP}, {"NonInclusive", nonInclusive}, {"Energy.DecodePerUop", energy}, {"Branch.HistLens", hist}} {
		if v.cfg == ctx.Cfg {
			t.Errorf("%s: config equals the base config", v.label)
		}
		_, before := counts()
		got, err := ctx.timing(app, v.cfg, "lru")
		if err != nil {
			t.Fatalf("%s: %v", v.label, err)
		}
		if _, after := counts(); after != before+1 {
			t.Errorf("%s: served from another config's entry (%d misses before, %d after)", v.label, before, after)
		}
		if want := direct(v.cfg, "lru"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: memoized run differs from a direct run", v.label)
		}
	}
	if base, _ := ctx.timing(app, ctx.Cfg, "lru"); reflect.DeepEqual(base, direct(energy, "lru")) {
		t.Error("doubling the decode energy left the LRU timing result unchanged; the Energy case tests nothing")
	}
}

// TestCampaignTimingPathCount pins the timing paths of one pass of the
// nine-CSV campaign at Workers = 1: every one of its 110 timing simulations
// runs under the context's predictor and backend, so they share one path
// per app, 11 builds in all. A Zen4 config, whose predictor and backend
// differ, then builds its own path for each app instead of reusing the
// Zen3 one, and still matches a direct run.
func TestCampaignTimingPathCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the nine-CSV campaign over 11 apps")
	}
	ctx := NewContext(1000)
	ctx.Workers = 1
	reg, _ := runMetered(t, ctx, []string{"tab1", "tab2", "fig2", "fig8", "fig10", "fig12", "fig14", "fig18", "fig21"})
	counts := func() (hits, misses uint64) {
		return reg.Counter("timing_path_memo_hit_total").Value(), reg.Counter("timing_path_memo_miss_total").Value()
	}
	apps := uint64(len(ctx.AppList()))
	if hits, misses := counts(); misses != apps || hits+misses != 110 {
		t.Errorf("campaign built %d paths for %d timing simulations, want %d for 110", misses, hits+misses, apps)
	}
	if n := len(ctx.caches.paths); uint64(n) != apps {
		t.Errorf("path memo holds %d paths, want %d", n, apps)
	}

	zen4 := core.Zen4Config()
	zen4.Energy = ctx.Cfg.Energy
	for _, app := range ctx.AppList() {
		got, err := ctx.timing(app, zen4, "lru")
		if err != nil {
			t.Fatal(err)
		}
		blocks, pws, err := ctx.Trace(app, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := core.RunTiming(blocks, pws, zen4, policy.NewLRU(), core.Telemetry{}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Zen4 run differs from a direct run", app)
		}
	}
	if _, misses := counts(); misses != 2*apps {
		t.Errorf("after the Zen4 runs: %d path builds, want %d", misses, 2*apps)
	}
	if n := len(ctx.caches.paths); uint64(n) != 2*apps {
		t.Errorf("path memo holds %d paths after the Zen4 runs, want %d", n, 2*apps)
	}
}

// TestTimingFailsCellOnForeignWindows: a trace whose windows are not its
// FormPWs windows panics in the path build. The panic fails the cell that
// asked for the timing run, and so its figure; a later timing request on
// the trace, under another frontend config, gets the path's cached error.
func TestTimingFailsCellOnForeignWindows(t *testing.T) {
	const app = "kafka"
	ctx := NewContext(2000)
	ctx.Workers = 1
	ctx.Apps = []string{app}
	blocks, _, err := core.TraceFor(app, ctx.Blocks, 0)
	if err != nil {
		t.Fatal(err)
	}
	planted := &flight[tracePair]{done: make(chan struct{}), val: tracePair{blocks, trace.FormPWs(blocks, 16)}}
	close(planted.done)
	ctx.caches.traces[fmt.Sprintf("%s/0/%d", app, ctx.Blocks)] = planted

	const mismatch = "not trace.FormPWs(blocks, 0)"
	r := RunMany(ctx, []string{"tab2"}, nil)[0]
	if r.Err == nil || r.Table != nil {
		t.Fatalf("tab2 over foreign windows: err %v, table %v; want a failed figure", r.Err, r.Table)
	}
	if len(r.Failed) != 1 || !strings.Contains(r.Failed[0].Error, mismatch) {
		t.Fatalf("failed cells = %+v, want one naming the window mismatch", r.Failed)
	}
	perfectBP := ctx.Cfg
	perfectBP.Frontend.PerfectBP = true
	if _, err := ctx.timing(app, perfectBP, "lru"); err == nil || !strings.Contains(err.Error(), mismatch) {
		t.Errorf("a later request under another config: err %v, want the cached mismatch", err)
	}
}
