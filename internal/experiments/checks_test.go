package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func mkTable(name string, cols []string, rows ...[]Cell) *Table {
	return &Table{Name: name, Columns: cols, Rows: rows}
}

// pctRow is a row of leading labels then percentages given in percent
// (5 holds 5 and renders "5.00%").
func pctRow(labels []string, pcts ...float64) []Cell {
	var r []Cell
	for _, l := range labels {
		r = append(r, Label(l))
	}
	for _, p := range pcts {
		r = append(r, Pct(p/100))
	}
	return r
}

// row is pctRow with a single label.
func row(label string, pcts ...float64) []Cell { return pctRow([]string{label}, pcts...) }

// checkShown fails t for every numeric cell of tbl whose rendered text does
// not parse back to the number claims, summaries and charts read.
func checkShown(t *testing.T, tbl *Table) {
	t.Helper()
	for _, r := range tbl.Rows {
		for ci, c := range r {
			v, ok := c.Number()
			if !ok {
				continue
			}
			text := c.String()
			got, err := strconv.ParseFloat(strings.TrimSuffix(text, "%"), 64)
			if err != nil || got != v || math.Signbit(got) != math.Signbit(v) {
				t.Errorf("%s %s/%s: text %q parses to %v (%v), cell holds %v", tbl.Name, r[0], tbl.Columns[ci], text, got, err, v)
			}
		}
	}
}

func TestCheckFig8PassAndFail(t *testing.T) {
	cols := []string{"application", "srrip", "ship++", "mockingjay", "ghrp", "thermometer", "furbys", "flack"}
	good := mkTable("fig8", cols,
		row("kafka", 5, 6, 4, 7, 10, 14, 30),
		row("MEAN", 5, 6, 4, 7, 10, 14, 30),
	)
	res := Check(good)
	if !res.OK() {
		t.Errorf("good fig8 failed: %v", res.Failed)
	}
	if len(res.Passed) != 7 {
		t.Errorf("passed = %d claims", len(res.Passed))
	}
	bad := mkTable("fig8", cols, row("MEAN", 5, 6, 4, 20, 10, 14, 30))
	if Check(bad).OK() {
		t.Error("fig8 with GHRP beating FURBYS should fail")
	}
}

func TestCheckFig10(t *testing.T) {
	cols := []string{"application", "belady", "foo", "foo+A", "foo+A+VC", "flack"}
	good := mkTable("fig10", cols, row("MEAN", 25, 10, 20, 26, 30))
	if res := Check(good); !res.OK() {
		t.Errorf("good fig10 failed: %v", res.Failed)
	}
	bad := mkTable("fig10", cols, row("MEAN", 35, 10, 20, 26, 30))
	if Check(bad).OK() {
		t.Error("fig10 with Belady beating FLACK should fail")
	}
}

// fig12Row is a fig12 row: configuration, miss rate, IPC, reduction (%).
func fig12Row(label string, missRate, ipc, red float64) []Cell {
	return []Cell{Label(label), Fixed(missRate, 4), Fixed(ipc, 4), Pct(red / 100)}
}

func TestCheckFig12(t *testing.T) {
	cols := []string{"configuration", "mean uop miss rate", "mean IPC", "mean miss reduction vs LRU@512"}
	good := mkTable("fig12", cols,
		fig12Row("lru@512", 0.15, 1.2, 0),
		fig12Row("lru@768", 0.11, 1.25, 20),
		fig12Row("furbys@512", 0.13, 1.22, 13),
	)
	if res := Check(good); !res.OK() {
		t.Errorf("good fig12 failed: %v", res.Failed)
	}
	bad := mkTable("fig12", cols,
		fig12Row("lru@512", 0.12, 1.2, 0),
		fig12Row("furbys@512", 0.13, 1.22, -8),
	)
	if Check(bad).OK() {
		t.Error("fig12 with FURBYS worse than LRU should fail")
	}
	unmatched := mkTable("fig12", cols,
		fig12Row("lru@512", 0.15, 1.2, 0),
		fig12Row("lru@640", 0.14, 1.21, 7),
		fig12Row("furbys@512", 0.13, 1.22, 13),
	)
	if Check(unmatched).OK() {
		t.Error("fig12 with no larger LRU matching FURBYS@512 should fail")
	}
}

// TestCheckFig13Strict: FURBYS must save strictly more than LRU; a tie fails.
func TestCheckFig13Strict(t *testing.T) {
	cols := []string{"configuration", "decoder", "icache", "uop cache", "others", "total vs no-uop-cache"}
	tbl := func(lru, furbys float64) *Table {
		return mkTable("fig13", cols,
			row("no uop cache", 13, 4, 0, 83, 100),
			row("lru", 2, 1, 2, 95, lru),
			row("furbys", 2, 1, 2, 95, furbys))
	}
	if res := Check(tbl(67.78, 67.06)); !res.OK() {
		t.Errorf("good fig13 failed: %v", res.Failed)
	}
	if Check(tbl(67.78, 67.78)).OK() {
		t.Error("fig13 with FURBYS tying LRU should fail")
	}
}

// TestCheckFig22: every policy's hottest decile must beat its coldest, and
// FLACK's mean hit rate must be at least FURBYS's.
func TestCheckFig22(t *testing.T) {
	cols := []string{"decile", "lru", "ghrp", "furbys", "flack"}
	deciles := func(ghrpCold, flackShift float64) *Table {
		tbl := mkTable("fig22", cols)
		for d := 0; d < 10; d++ {
			v := float64(90 - 10*d)
			ghrp := v
			if d == 9 {
				ghrp = ghrpCold
			}
			tbl.Rows = append(tbl.Rows, row("d", v, ghrp, v+1, v+1+flackShift))
		}
		return tbl
	}
	if res := Check(deciles(0, 0)); !res.OK() {
		t.Errorf("good fig22 failed: %v", res.Failed)
	}
	if Check(deciles(95, 0)).OK() {
		t.Error("fig22 with GHRP's cold decile beating its hot one should fail")
	}
	if Check(deciles(0, -2)).OK() {
		t.Error("fig22 with FURBYS above FLACK on average should fail")
	}
}

func TestCheckSec3B(t *testing.T) {
	cols := []string{"application", "policy", "cold", "capacity", "conflict", "total misses"}
	good := mkTable("sec3b", cols, append(pctRow([]string{"MEAN", "lru"}, 1, 85, 14), Label("")))
	if res := Check(good); !res.OK() {
		t.Errorf("good sec3b failed: %v", res.Failed)
	}
	bad := mkTable("sec3b", cols, append(pctRow([]string{"MEAN", "lru"}, 60, 25, 15), Label("")))
	if Check(bad).OK() {
		t.Error("sec3b with cold misses dominating should fail")
	}
}

func TestCheckUnknownExperimentIsEmpty(t *testing.T) {
	res := Check(mkTable("tab1", []string{"parameter", "value"}))
	if len(res.Passed)+len(res.Failed) != 0 {
		t.Error("tab1 has no registered claims")
	}
	if !res.OK() {
		t.Error("empty check should be OK")
	}
}

// TestCheckMissingColumnsFail: claims and summaries read columns by exact
// name, so a name that is only part of a real column reads as missing.
func TestCheckMissingColumnsFail(t *testing.T) {
	res := Check(mkTable("fig8", []string{"application", "x"}, row("MEAN", 1)))
	if res.OK() {
		t.Error("fig8 without its columns should fail the checks")
	}
	inc := mkTable("sens-inclusion",
		[]string{"application", "inclusive: FURBYS IPC speedup", "non-inclusive: FURBYS IPC speedup", "non-inclusive: invalidations"},
		append(row("MEAN", 0.5, 2.5), Label("")))
	if v, ok := meanOf(inc, "inclusive"); ok {
		t.Errorf("\"inclusive\" read %v from a column it is only part of", v)
	}
	if got := summarize(inc)[0].Measured; got != "0.50% vs 2.50%" {
		t.Errorf("sens-inclusion summary = %q", got)
	}
}

// TestCheckAgainstLiveTables runs the real experiments at small scale and
// verifies the paper's claims hold end-to-end — the reproduction's core
// integration test. Every numeric cell's rendered text must also parse back
// to the number the claims read.
func TestCheckAgainstLiveTables(t *testing.T) {
	if testing.Short() {
		t.Skip("live shape checks are expensive")
	}
	ctx := NewContext(12000)
	ctx.Apps = []string{"kafka", "wordpress", "mysql"}
	for _, id := range []string{"fig8", "fig10", "sec3e", "fig21", "coverage"} {
		run, _ := Lookup(id)
		tbl, err := run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		res := Check(tbl)
		for _, f := range res.Failed {
			t.Errorf("%s: claim failed: %s", id, f)
		}
		checkShown(t, tbl)
	}
}
