package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestSensInsertDelayTable(t *testing.T) {
	ctx := NewContext(8000)
	ctx.Apps = []string{"kafka"}
	tbl, err := SensInsertDelay(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The A benefit (last column) must be positive at high delays.
	lastBenefit, _ := tbl.num(tbl.Rows[len(tbl.Rows)-1], "A benefit")
	if lastBenefit <= 0 {
		t.Errorf("A benefit at max delay = %.2f%%, want positive", lastBenefit)
	}
}

func TestSensSegmentLimitTable(t *testing.T) {
	ctx := NewContext(8000)
	ctx.Apps = []string{"kafka"}
	tbl, err := SensSegmentLimit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Largest segment limit should not be the worst.
	const col = "flack miss reduction vs LRU"
	first, _ := tbl.num(tbl.Rows[0], col)
	last, _ := tbl.num(tbl.Rows[len(tbl.Rows)-1], col)
	if last < first-5 {
		t.Errorf("default segment limit (%.2f%%) much worse than tiny segments (%.2f%%)", last, first)
	}
}

func TestSensInclusionTable(t *testing.T) {
	ctx := NewContext(10000)
	ctx.Apps = []string{"wordpress"}
	tbl, err := SensInclusion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[1][0].String() != "MEAN" {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	for _, c := range tbl.Columns {
		if strings.Contains(c, "non-inclusive") {
			return
		}
	}
	t.Error("missing non-inclusive column")
}

func TestMeanHelper(t *testing.T) {
	if mean(nil) != 0 {
		t.Error("mean of empty")
	}
	if got := mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

// TestPctHelper: cells render as the formats they replace, and a number
// holds exactly what its text shows, ties and negative zero included.
func TestPctHelper(t *testing.T) {
	if got := Pct(0.1234).String(); got != "12.34%" {
		t.Errorf("pct = %q", got)
	}
	if got := Pct(-0.05).String(); got != "-5.00%" {
		t.Errorf("pct = %q", got)
	}
	tbl := &Table{Name: "rounding", Columns: []string{"v", "cell"}}
	fixed := func(v float64, d int) {
		c := Fixed(v, d)
		if want := strconv.FormatFloat(v, 'f', d, 64); c.String() != want {
			t.Errorf("Fixed(%v, %d) = %q, want %q", v, d, c.String(), want)
		}
		tbl.AddRow(Label(strconv.FormatFloat(v, 'g', -1, 64)), c)
	}
	// 0.005, 0.015 and 0.00035 land exactly on a half once scaled, from
	// above, below and below: only the exact rounding error places them.
	for _, v := range []float64{0.005, 0.015, 0.00035, 0.125, 0.375, 2.5, 3.5, -2.5, 1.005, 2.675, 0.285, 1e-9, -0.001, -0.004, 12345.67895, 1.0 / 3} {
		for _, d := range []int{0, 1, 2, 4} {
			fixed(v, d)
		}
		tbl.AddRow(Label("pct"), Pct(v))
	}
	for i := -400; i <= 400; i++ {
		for _, v := range []float64{float64(i) / 8, float64(i) * 0.005, float64(i) * 0.00005} {
			fixed(v, 2)
			fixed(v, 4)
			tbl.AddRow(Label("pct"), Pct(v))
		}
	}
	checkShown(t, tbl)
}

func TestAppRowsPropagatesError(t *testing.T) {
	ctx := NewContext(1000)
	ctx.Apps = []string{"kafka", "mysql", "python"}
	_, err := appRows(ctx, func(app string) (int, error) {
		if app == "mysql" {
			return 0, errTest
		}
		return 1, nil
	})
	if err != errTest {
		t.Errorf("err = %v", err)
	}
}

func TestAppRowsOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx := NewContext(1000)
		ctx.Apps = []string{"kafka", "mysql", "python"}
		ctx.Workers = workers
		rows, err := appRows(ctx, func(app string) (string, error) { return app, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, app := range ctx.Apps {
			if rows[i] != app {
				t.Errorf("workers=%d: rows[%d] = %q, want %q", workers, i, rows[i], app)
			}
		}
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

func TestSensFragmentationTable(t *testing.T) {
	ctx := NewContext(8000)
	ctx.Apps = []string{"drupal"}
	tbl, err := SensFragmentation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Compaction must reach utilization 1.0 and not increase the miss
	// rate versus baseline.
	baseMiss, _ := tbl.num(tbl.find("baseline lru"), "mean uop miss rate")
	compMiss, _ := tbl.num(tbl.find("compaction"), "mean uop miss rate")
	compUtil, _ := tbl.num(tbl.find("compaction"), "mean utilization")
	if compUtil < 0.99 {
		t.Errorf("compaction utilization = %v", compUtil)
	}
	if compMiss > baseMiss {
		t.Errorf("compaction raised the miss rate: %v vs %v", compMiss, baseMiss)
	}
}

func TestSensObjectiveOrdering(t *testing.T) {
	ctx := NewContext(8000)
	ctx.Apps = []string{"drupal"}
	tbl, err := SensObjective(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ohr, _ := meanOf(tbl, "ohr")
	vc, _ := meanOf(tbl, "variable cost")
	if vc < ohr {
		t.Errorf("variable-cost objective (%.2f%%) below OHR (%.2f%%)", vc, ohr)
	}
}
