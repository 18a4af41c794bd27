package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"uopsim/internal/telemetry"
)

// smallCtx keeps experiment smoke tests fast: two contrasting apps, short
// traces.
func smallCtx() *Context {
	ctx := NewContext(8000)
	ctx.Apps = []string{"kafka", "wordpress"}
	return ctx
}

func TestRegistryCoversEveryFigure(t *testing.T) {
	want := []string{"tab1", "tab2", "fig2", "sec3b", "sec3e", "fig5", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22", "coverage",
		"sens-inclusion", "sens-delay", "sens-segment", "sens-fragmentation", "sens-objective"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%s) failed", id)
		}
	}
	if _, ok := Lookup("nosuch"); ok {
		t.Error("Lookup(nosuch) should fail")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Name: "x", Title: "T", Columns: []string{"a", "b"}, Notes: []string{"note"}}
	tbl.AddRow(Label("foo"), Fixed(1.5, 4))
	tbl.AddRow(Count(2), Label("bar"))
	var csv, md bytes.Buffer
	if err := tbl.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "a,b\nfoo,1.5000\n2,bar\n") {
		t.Errorf("csv = %q", csv.String())
	}
	if err := tbl.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| foo | 1.5000 |") || !strings.Contains(md.String(), "> note") {
		t.Errorf("markdown = %q", md.String())
	}
}

func TestContextCaching(t *testing.T) {
	ctx := smallCtx()
	b1, p1, err := ctx.Trace("kafka", 0)
	if err != nil {
		t.Fatal(err)
	}
	b2, p2, _ := ctx.Trace("kafka", 0)
	if &b1[0] != &b2[0] || &p1[0] != &p2[0] {
		t.Error("trace not cached")
	}
	pr1, err := ctx.Profile("kafka", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr2, _ := ctx.Profile("kafka", 0, 0)
	if pr1 != pr2 {
		t.Error("profile not cached")
	}
	if len(NewContext(0).AppList()) != 11 {
		t.Error("default app list should be all 11")
	}
}

// TestCampaignBuildsEachProgramOnce: the nine-CSV campaign generates 33
// traces (11 apps under the default input and fig18's training inputs 1
// and 2) from 11 programs, one per app. The training inputs leave only
// their profiles behind: no trace or prepared-trace memo key names an
// input other than 0.
func TestCampaignBuildsEachProgramOnce(t *testing.T) {
	ctx := NewContext(5000)
	ctx.Workers = 2
	for _, r := range RunMany(ctx, campaignIDs, nil) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
	if got, want := ctx.MemoTraffic()["programs"], (telemetry.MemoTraffic{Hits: 22, Misses: 11}); got != want {
		t.Errorf("programs memo = %+v, want %+v", got, want)
	}
	inputOf := func(key string) string { return strings.Split(key, "/")[1] }
	for key := range ctx.caches.traces {
		if inputOf(key) != "0" {
			t.Errorf("trace memo keeps %s", key)
		}
	}
	for key := range ctx.caches.preps {
		if inputOf(key) != "0" {
			t.Errorf("prepared-trace memo keeps %s", key)
		}
	}
	training := 0
	for key := range ctx.caches.profs {
		if inputOf(key) != "0" {
			training++
		}
	}
	if training != 22 {
		t.Errorf("profile memo keeps %d training-input profiles, want 22", training)
	}
}

// TestDerivedConfigSharesPrograms: fig17 runs under a context derived for
// the Zen4 config, which shares the parent's programs, traces and prepared
// traces. Run next to fig8, under two workers, fig17 builds no program and
// generates no trace of its own, and its table equals the one a fresh
// context computes.
func TestDerivedConfigSharesPrograms(t *testing.T) {
	run := func(ids ...string) (*Context, []RunResult) {
		t.Helper()
		ctx := NewContext(2000)
		ctx.Workers = 2
		rs := RunMany(ctx, ids, nil)
		for _, r := range rs {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
		}
		return ctx, rs
	}
	ctx, rs := run("fig8", "fig17")
	apps := len(ctx.AppList())
	if got := ctx.MemoTraffic()["programs"]; got.Misses != uint64(apps) {
		t.Errorf("programs memo after fig8 and fig17 = %+v, want %d misses", got, apps)
	}
	if n := len(ctx.caches.traces); n != apps {
		t.Errorf("trace memo holds %d traces, want %d", n, apps)
	}
	if _, fresh := run("fig17"); !reflect.DeepEqual(rs[1].Table, fresh[0].Table) {
		t.Error("fig17 next to fig8 differs from fig17 in a fresh context")
	}
}

func TestTable1(t *testing.T) {
	tbl, err := Table1(smallCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
	if !strings.Contains(tbl.Rows[3][1].String(), "512-entry, 8-way") {
		t.Errorf("uop cache row = %v", tbl.Rows[3])
	}
}

func TestTable2MeasuresMPKI(t *testing.T) {
	ctx := smallCtx()
	tbl, err := Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if v, ok := tbl.num(r, "measured MPKI"); !ok || v == 0 {
			t.Errorf("measured MPKI is zero for %s", r[0])
		}
	}
}

func TestFig8ShapesHold(t *testing.T) {
	ctx := smallCtx()
	tbl, err := Fig8FURBYSMissReduction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	furbys, ok1 := meanOf(tbl, "furbys")
	flack, ok2 := meanOf(tbl, "flack")
	if !ok1 || !ok2 {
		t.Fatalf("no furbys/flack mean in %v", tbl.Rows)
	}
	if furbys <= 0 {
		t.Errorf("FURBYS mean reduction %.2f%% should be positive", furbys)
	}
	if flack <= furbys {
		t.Errorf("FLACK (%.2f%%) should bound FURBYS (%.2f%%)", flack, furbys)
	}
}

func TestFig10AblationMonotoneish(t *testing.T) {
	ctx := smallCtx()
	tbl, err := Fig10FLACKAblation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	foo, _ := meanOf(tbl, "foo")
	flack, _ := meanOf(tbl, "flack")
	belady, _ := meanOf(tbl, "belady")
	if flack <= foo {
		t.Errorf("FLACK (%.2f%%) should beat raw FOO (%.2f%%)", flack, foo)
	}
	if flack <= belady {
		t.Errorf("FLACK (%.2f%%) should beat Belady (%.2f%%)", flack, belady)
	}
}

func TestFig19And20Sweeps(t *testing.T) {
	ctx := smallCtx()
	ctx.Apps = []string{"kafka"}
	t19, err := Fig19WeightBits(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(t19.Rows) != 8 {
		t.Errorf("fig19 rows = %d", len(t19.Rows))
	}
	t20, err := Fig20DetectorDepth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(t20.Rows) != 5 {
		t.Errorf("fig20 rows = %d", len(t20.Rows))
	}
}

func TestFig22DecileMonotonicityAtHotEnd(t *testing.T) {
	ctx := smallCtx()
	tbl, err := Fig22Hotness(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	hot, _ := tbl.num(tbl.Rows[0], "lru")
	cold, _ := tbl.num(tbl.Rows[9], "lru")
	if hot <= cold {
		t.Errorf("hot decile hit rate %.2f%% should exceed cold %.2f%%", hot, cold)
	}
}

func TestFig13Shares(t *testing.T) {
	ctx := smallCtx()
	ctx.Apps = []string{"clang"}
	tbl, err := Fig13EnergyBreakdownClang(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The no-uop-cache decoder share should be substantial (paper: 12.5%).
	dec, _ := tbl.num(tbl.find("no uop cache"), "decoder")
	if dec < 5 || dec > 30 {
		t.Errorf("no-uop-cache decoder share %.1f%%, want 5-30%%", dec)
	}
	// LRU total should be below the no-uop-cache total (paper: -8.1%).
	lruTotal, _ := tbl.num(tbl.find("lru"), "total vs no-uop-cache")
	if lruTotal >= 100 {
		t.Errorf("LRU total %.1f%% of baseline, want < 100%%", lruTotal)
	}
}
