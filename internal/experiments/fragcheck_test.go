package experiments

import (
	"testing"

	"uopsim/internal/plot"
)

// TestAllRegisteredExperimentsHaveUniqueIDs guards the registry against
// copy-paste duplicates as experiments accumulate.
func TestAllRegisteredExperimentsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("duplicate experiment id %q", id)
		}
		seen[id] = true
	}
}

// TestTablesRenderAsPlots: every experiment that produces numeric columns
// must chart without panicking, and the ones the paper presents as figures
// must actually have series.
func TestTablesRenderAsPlots(t *testing.T) {
	ctx := NewContext(6000)
	ctx.Apps = []string{"kafka"}
	mustPlot := map[string]bool{
		"fig5": true, "fig8": true, "fig19": true, "fig20": true, "fig21": true,
	}
	for _, id := range []string{"tab1", "fig5", "fig8", "fig19", "fig20", "fig21"} {
		run, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tbl, err := run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		groups, series := tbl.Series()
		if mustPlot[id] && series == nil {
			t.Errorf("%s: expected plottable figure", id)
		}
		if series != nil && len(plot.BarSVG(tbl.Title, "percent", groups, series)) < 100 {
			t.Errorf("%s: suspiciously small SVG", id)
		}
	}
}
