package experiments

import (
	"reflect"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
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
	hist.Branch.HistLens = append([]int(nil), hist.Branch.HistLens...)
	hist.Branch.HistLens[len(hist.Branch.HistLens)-1]++
	for _, v := range []struct {
		label string
		cfg   core.Config
	}{{"PerfectBP", perfectBP}, {"NonInclusive", nonInclusive}, {"Energy.DecodePerUop", energy}, {"Branch.HistLens", hist}} {
		if configKey(v.cfg) == configKey(ctx.Cfg) {
			t.Errorf("%s: config key equals the base config's", v.label)
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
