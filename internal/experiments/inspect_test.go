package experiments

import (
	"strings"
	"testing"

	"uopsim/internal/inspect"
	"uopsim/internal/offline"
	"uopsim/internal/telemetry"
)

func TestRunAttributionReconciles(t *testing.T) {
	ctx := smallCtx()
	ctx.Apps = []string{"kafka"}
	ctx.Telemetry.Metrics = telemetry.NewRegistry()
	rows, err := RunAttribution(ctx, AttributionOptions{
		Policies: []string{"lru", "srrip"},
		Window:   1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (1 app x 2 policies)", len(rows))
	}
	for _, r := range rows {
		if r.App != "kafka" {
			t.Errorf("row app = %q", r.App)
		}
		if r.Total == 0 {
			t.Errorf("%s/%s saw no evictions; trace too small?", r.App, r.Policy)
		}
		if r.Justified+r.Premature+r.Divergent != r.Total {
			t.Errorf("%s/%s partition not exact: %d+%d+%d != %d",
				r.App, r.Policy, r.Justified, r.Premature, r.Divergent, r.Total)
		}
		if r.Window != 1024 {
			t.Errorf("window = %d", r.Window)
		}
	}
	if rows[0].Policy != "lru" || rows[1].Policy != "srrip" {
		t.Errorf("row order = %s,%s; want lru,srrip", rows[0].Policy, rows[1].Policy)
	}
	// The aggregate inspect_* counters must equal the row totals.
	total, j, p, d := inspect.Totals(rows)
	reg := ctx.Telemetry.Metrics
	if got := reg.Counter("inspect_evictions_total").Value(); got != total {
		t.Errorf("inspect_evictions_total = %d, want %d", got, total)
	}
	if got := reg.Counter("inspect_justified_total").Value(); got != j {
		t.Errorf("inspect_justified_total = %d, want %d", got, j)
	}
	if got := reg.Counter("inspect_premature_total").Value(); got != p {
		t.Errorf("inspect_premature_total = %d, want %d", got, p)
	}
	if got := reg.Counter("inspect_divergent_total").Value(); got != d {
		t.Errorf("inspect_divergent_total = %d, want %d", got, d)
	}
	// And the dashboard block mirrors them.
	snap := ctx.StatusSnapshot()
	if snap.Attribution == nil {
		t.Fatal("StatusSnapshot has no attribution block after RunAttribution")
	}
	if snap.Attribution.Evictions != total || snap.Attribution.Justified != j ||
		snap.Attribution.Premature != p || snap.Attribution.Divergent != d {
		t.Errorf("dashboard attribution %+v, want %d/%d/%d/%d", snap.Attribution, total, j, p, d)
	}
}

func TestRunAttributionDefaultWindow(t *testing.T) {
	ctx := smallCtx()
	ctx.Apps = []string{"kafka"}
	rows, err := RunAttribution(ctx, AttributionOptions{Policies: []string{"lru"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Window != inspect.DefaultWindow {
		t.Errorf("window = %d, want DefaultWindow", rows[0].Window)
	}
}

func TestRunAttributionRejectsEmptyPolicies(t *testing.T) {
	if _, err := RunAttribution(smallCtx(), AttributionOptions{}); err == nil {
		t.Fatal("want error for empty policy list")
	}
}

func TestStatusSnapshotTracksCampaign(t *testing.T) {
	ctx := smallCtx()
	ctx.Spans = inspect.NewSpanLog()
	RunMany(ctx, []string{"tab1", "tab2"}, nil)
	snap := ctx.StatusSnapshot()
	if snap.ExperimentsTotal != 2 || snap.ExperimentsDone != 2 {
		t.Errorf("experiments %d/%d, want 2/2", snap.ExperimentsDone, snap.ExperimentsTotal)
	}
	if len(snap.Running) != 0 {
		t.Errorf("running = %v after campaign end", snap.Running)
	}
	if snap.CellsDone == 0 {
		t.Error("no cells recorded done")
	}
	if snap.CellsFailed != 0 {
		t.Errorf("unexpected failures: %+v", snap)
	}
	if snap.WorkersCap == 0 {
		t.Error("workers_cap not populated from the limiter")
	}
	// The span log captured the experiment and cell spans.
	if ctx.Spans.Len() == 0 {
		t.Error("span log empty after a campaign")
	}
	var sawExp, sawCell bool
	var sb strings.Builder
	if err := ctx.Spans.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `"cat":"experiment"`) {
		sawExp = true
	}
	if strings.Contains(sb.String(), `"cat":"cell"`) {
		sawCell = true
	}
	if !sawExp || !sawCell {
		t.Errorf("span log missing categories: experiment=%v cell=%v", sawExp, sawCell)
	}
}

// TestRunAttributionSharesPlansAndCounters: the attribution replays of
// flack, furbys and thermometer read the FLACK plan through the context's
// plan cache instead of solving it again, and their per-run counters are
// added to the context's registry once each row reconciles. The first
// RunAttribution solves and memoizes the plan; during the second, no
// segment is solved and every replay hits the memo.
func TestRunAttributionSharesPlansAndCounters(t *testing.T) {
	ctx := smallCtx()
	ctx.Apps = []string{"kafka"}
	reg := telemetry.NewRegistry()
	ctx.Telemetry.Metrics = reg
	offline.RegisterMetrics(reg)
	if _, err := RunAttribution(ctx, AttributionOptions{Policies: []string{"lru"}}); err != nil {
		t.Fatal(err)
	}
	read := func() (solved, memoHits uint64) {
		reg.Collect()
		return reg.Counter("offline_segments_solved_total").Value(), reg.Counter("plan_memo_hit_total").Value()
	}
	solved0, hits0 := read()
	pols := []string{"flack", "furbys", "thermometer"}
	if _, err := RunAttribution(ctx, AttributionOptions{Policies: pols}); err != nil {
		t.Fatal(err)
	}
	solved, hits := read()
	if solved != solved0 {
		t.Errorf("offline_segments_solved_total moved %d → %d during the attribution replays", solved0, solved)
	}
	// One hit for RunAttribution's own plan and at least one per replay.
	if hits < hits0+1+uint64(len(pols)) {
		t.Errorf("plan_memo_hit_total %d → %d, want at least %d more", hits0, hits, 1+len(pols))
	}
	for _, name := range []string{"policy_lru_hits_total", "policy_flack_hits_total", "uopcache_evictions_total"} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("%s = 0 in the context registry after the attribution replays", name)
		}
	}
}
