package experiments

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"uopsim/internal/offline"
	"uopsim/internal/telemetry"
)

// planTraffic runs ids on ctx with a fresh metrics registry attached and
// returns the plan memo's hit and miss counts plus each experiment's CSV.
// With no artifact store attached, every memo miss is one flow solve.
func planTraffic(t *testing.T, ctx *Context, ids []string) (hits, misses uint64, csv map[string]string) {
	t.Helper()
	reg, csv := runMetered(t, ctx, ids)
	return reg.Counter("plan_memo_hit_total").Value(), reg.Counter("plan_memo_miss_total").Value(), csv
}

// runMetered runs ids on ctx with a fresh metrics registry attached and
// returns the registry plus each experiment's CSV.
func runMetered(t *testing.T, ctx *Context, ids []string) (*telemetry.Registry, map[string]string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	ctx.Telemetry.Metrics = reg
	csv := make(map[string]string)
	for _, r := range RunMany(ctx, ids, nil) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		var buf bytes.Buffer
		if err := r.Table.CSV(&buf); err != nil {
			t.Fatal(err)
		}
		csv[r.ID] = buf.String()
	}
	return reg, csv
}

// TestPlanMemoSolvesEachPlanOnce: fig8 and fig10 ask for five keep-plans per
// app — fig8's FLACK profile and FLACK replay, fig10's foo, foo+A and
// foo+A+VC (fig10's flack column is fig8's memoized replay and asks for no
// plan) — but only three are distinct: OHR/no-fold, VC/no-fold and
// VC/fold. The Context's memo must solve each once. A parallel run races on
// the same keys and must still render byte-identical tables.
func TestPlanMemoSolvesEachPlanOnce(t *testing.T) {
	ids := []string{"fig8", "fig10"}
	serial := NewContext(2000)
	serial.Apps = []string{"kafka", "wordpress"}
	serial.Workers = 1
	hits, misses, want := planTraffic(t, serial, ids)
	apps := uint64(len(serial.Apps))
	if misses != 3*apps {
		t.Errorf("serial run solved %d plans, want %d (3 per app)", misses, 3*apps)
	}
	if hits+misses != 5*apps {
		t.Errorf("serial run asked for %d plans, want %d (5 per app)", hits+misses, 5*apps)
	}
	if n := len(serial.caches.plans); uint64(n) != misses {
		t.Errorf("memo holds %d plans after %d solves", n, misses)
	}

	par := NewContext(2000)
	par.Apps = serial.Apps
	par.Workers = 4
	_, _, got := planTraffic(t, par, ids)
	for _, id := range ids {
		if got[id] != want[id] {
			t.Errorf("%s differs between Workers=1 and Workers=4:\n--- serial ---\n%s--- parallel ---\n%s", id, want[id], got[id])
		}
	}
}

// TestCampaignSolveCount pins the flow solves of one pass of the nine-CSV
// campaign at Workers = 1: 77 keep-plan requests, of which 55 are distinct
// and solved — 3 per app for fig8 and fig10 (see above) plus fig18's two
// training-input FLACK profiles per app. The other six experiments solve
// nothing. The counts do not depend on the trace length.
func TestCampaignSolveCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the nine-CSV campaign over 11 apps")
	}
	ctx := NewContext(1000)
	ctx.Workers = 1
	hits, misses, _ := planTraffic(t, ctx, []string{"tab1", "tab2", "fig2", "fig8", "fig10", "fig12", "fig14", "fig18", "fig21"})
	if misses != 55 || hits+misses != 77 {
		t.Errorf("campaign solved %d of %d requested plans, want 55 of 77", misses, hits+misses)
	}
}

// TestCampaignTimingRunCount pins the timing simulations of one pass of
// the nine-CSV campaign at Workers = 1: 14 requests per app, of which 10 are
// distinct and simulated. tab2, fig2's base, fig12's lru@512 and fig14 all
// ask for LRU at the context config, and fig12's furbys@512 and fig14 for
// FURBYS there; fig2's four perfect-structure variants and fig12's four
// larger LRU geometries are each asked for once. The other five experiments
// run no timing model.
func TestCampaignTimingRunCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the nine-CSV campaign over 11 apps")
	}
	ctx := NewContext(1000)
	ctx.Workers = 1
	reg, _ := runMetered(t, ctx, []string{"tab1", "tab2", "fig2", "fig8", "fig10", "fig12", "fig14", "fig18", "fig21"})
	hits, misses := reg.Counter("timing_memo_hit_total").Value(), reg.Counter("timing_memo_miss_total").Value()
	if misses != 110 || hits+misses != 154 {
		t.Errorf("campaign simulated %d of %d requested timing runs, want 110 of 154", misses, hits+misses)
	}
	if n := len(ctx.caches.times); uint64(n) != misses {
		t.Errorf("timing memo holds %d runs after %d simulations", n, misses)
	}
}

// TestCancelledSolveNotMemoized: a plan solved under a cancelled context is
// incomplete, so it must never enter the memo; a later uncancelled request
// for the same key solves afresh and matches a direct solve.
func TestCancelledSolveNotMemoized(t *testing.T) {
	ctx := NewContext(2000)
	_, pws, err := ctx.Trace("kafka", 0)
	if err != nil {
		t.Fatal(err)
	}
	geom := ctx.Cfg.UopCache
	pt, err := ctx.Prepared("kafka", 0, geom)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	offline.ComputeDecisionsCached(cancelled, pws, pt, geom, offline.CostVC, true, 0, 1, ctx.plans())
	if n := len(ctx.caches.plans); n != 0 {
		t.Fatalf("memo holds %d plans after a cancelled solve, want 0", n)
	}
	got := offline.ComputeDecisionsCached(context.Background(), pws, pt, geom, offline.CostVC, true, 0, 1, ctx.plans())
	want := offline.ComputeDecisionsPrepared(context.Background(), pt, geom, offline.CostVC, true, 0, 1)
	if !reflect.DeepEqual(got, want) {
		t.Error("plan solved after a cancelled attempt differs from a direct solve")
	}
	if n := len(ctx.caches.plans); n != 1 {
		t.Errorf("memo holds %d plans after one completed solve, want 1", n)
	}
}

// mapPlans is an in-memory stand-in for the on-disk plan store.
type mapPlans map[string]*offline.Decisions

func (m mapPlans) Load(key string) (*offline.Decisions, bool) { d, ok := m[key]; return d, ok }
func (m mapPlans) Store(key string, d *offline.Decisions)     { m[key] = d }

// TestPlanMemoFallsThroughToStore: a memo miss is served from the backing
// store (and kept), and a stored plan lands in both.
func TestPlanMemoFallsThroughToStore(t *testing.T) {
	store := mapPlans{"warm": {Keep: []bool{true}}}
	cc := newCaches()
	p := memoPlans{cc: cc, store: store}
	if d, ok := p.Load("warm"); !ok || d != store["warm"] {
		t.Fatal("memo miss did not fall through to the store")
	}
	if cc.plans["warm"] != store["warm"] {
		t.Error("a plan loaded from the store was not memoized")
	}
	if _, ok := p.Load("cold"); ok {
		t.Fatal("Load hit a key neither level holds")
	}
	d := &offline.Decisions{Keep: []bool{false}}
	p.Store("cold", d)
	if cc.plans["cold"] != d || store["cold"] != d {
		t.Error("Store did not write the plan to both the memo and the store")
	}
}
