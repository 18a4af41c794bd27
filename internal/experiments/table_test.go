package experiments

import "testing"

func TestTableSeries(t *testing.T) {
	tbl := &Table{Name: "fig8", Title: "T", Columns: []string{"application", "furbys", "note", "gap"}}
	tbl.AddRow(Label("kafka"), Pct(0.2566), Label("hello"), Label("-"))
	tbl.AddRow(Label("postgres"), Pct(0.0187), Label("world"), Count(3))
	tbl.AddRow(Label("MEAN"), Pct(0.1377), Label(""), Label(""))
	groups, series := tbl.Series()
	if len(groups) != 2 || groups[0] != "kafka" {
		t.Errorf("groups = %v (MEAN must be dropped)", groups)
	}
	if len(series) != 2 || series[0].Name != "furbys" || series[1].Name != "gap" {
		t.Fatalf("series = %+v (the label column must be dropped)", series)
	}
	if series[0].Values[1] != 1.87 {
		t.Errorf("values = %v", series[0].Values)
	}
	if v := series[1].Values; v[0] != 0 || v[1] != 3 {
		t.Errorf("a label cell in a numeric column must plot as 0: %v", v)
	}
}

func TestTableSeriesNotPlottable(t *testing.T) {
	text := &Table{Columns: []string{"parameter", "value"}}
	text.AddRow(Label("CPU"), Label("3.2GHz"))
	text.AddRow(Label("Decoder"), Label("4-wide"))
	if _, series := text.Series(); series != nil {
		t.Error("text-only table should not be plottable")
	}
	if _, series := (&Table{Columns: []string{"only"}}).Series(); series != nil {
		t.Error("single-column table should not be plottable")
	}
	summary := &Table{Columns: []string{"a", "b"}}
	summary.AddRow(Label("MEAN"), Count(1))
	if _, series := summary.Series(); series != nil {
		t.Error("summary-only table should not be plottable")
	}
}
