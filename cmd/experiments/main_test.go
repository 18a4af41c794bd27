package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uopsim/internal/experiments"
	"uopsim/internal/telemetry"
)

// TestParseArgsValidation is the up-front CLI contract: every malformed
// invocation is rejected as a usage error (exit status 2) before any
// simulation work starts.
func TestParseArgsValidation(t *testing.T) {
	tmp := t.TempDir()
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the usage error; "" = must parse
	}{
		{"no ids", []string{}, "no experiment ids"},
		{"unknown id", []string{"fig999"}, `unknown experiment "fig999"`},
		{"unknown flag", []string{"-nope", "fig8"}, "flag provided but not defined"},
		{"negative parallel", []string{"-parallel", "-2", "fig8"}, "-parallel must be >= 0"},
		{"zero blocks", []string{"-blocks", "0", "fig8"}, "-blocks must be positive"},
		{"zero sample", []string{"-events", filepath.Join(tmp, "e.jsonl"), "-sample", "0", "fig8"}, "-sample must be positive"},
		// Failed cells fail their experiment; there is no retry budget,
		// degrade switch, fault injector or separate pprof listener.
		{"removed retries", []string{"-retries", "2", "fig8"}, "flag provided but not defined: -retries"},
		{"removed strict", []string{"-strict", "fig8"}, "flag provided but not defined: -strict"},
		{"removed faultinject", []string{"-faultinject", "*:3:panic", "fig8"}, "flag provided but not defined: -faultinject"},
		{"removed pprof", []string{"-pprof", "localhost:6060", "fig8"}, "flag provided but not defined: -pprof"},
		{"unwritable output dir", []string{"-csv", filepath.Join(tmp, "f.csv", "sub"), "fig8"}, "output dir"},
		// An interrupted campaign is rerun (with -cache-dir for speed);
		// there is no checkpoint resume, so -resume is rejected whatever
		// path it names.
		{"resume missing dir", []string{"-resume", filepath.Join(tmp, "absent"), "fig8"}, "flag provided but not defined: -resume"},
		{"resume not a dir", []string{"-resume", filepath.Join(tmp, "f.csv"), "fig8"}, "flag provided but not defined: -resume"},

		{"ok single", []string{"fig8"}, ""},
		{"ok all", []string{"all"}, ""},
		{"ok flags", []string{"-parallel", "4", "-quiet", "fig8", "tab2"}, ""},
		{"ok list without ids", []string{"-list"}, ""},
	}
	// The unwritable-output-dir case needs f.csv to exist as a file.
	if err := writeFile(filepath.Join(tmp, "f.csv"), "x"); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, err := parseArgs(c.args, io.Discard)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("parseArgs(%v) = %v, want success", c.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseArgs(%v) succeeded (options %+v), want error containing %q", c.args, o, c.wantErr)
			}
			var ue usageError
			if !errors.As(err, &ue) {
				t.Fatalf("parseArgs(%v) = %v (%T), want a usageError", c.args, err, err)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseArgs(%v) = %q, want it to contain %q", c.args, err, c.wantErr)
			}
		})
	}
}

func TestParseArgsValues(t *testing.T) {
	o, err := parseArgs([]string{"-parallel", "3", "-quiet", "-blocks", "5000", "fig8", "tab2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.par != 3 || !o.quiet || o.blocks != 5000 {
		t.Errorf("options = %+v", o)
	}
	if len(o.ids) != 2 || o.ids[0] != "fig8" || o.ids[1] != "tab2" {
		t.Errorf("ids = %v", o.ids)
	}
}

func TestParseArgsAllExpands(t *testing.T) {
	o, err := parseArgs([]string{"all"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.ids) < 20 {
		t.Errorf("'all' expanded to only %d ids", len(o.ids))
	}
}

func TestParseArgsHelp(t *testing.T) {
	if _, err := parseArgs([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
	if code := runMain([]string{"-h"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("runMain(-h) = %d, want 0", code)
	}
	if code := runMain([]string{"fig999"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("runMain(unknown id) = %d, want 2", code)
	}
	if code := runMain([]string{"-list"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("runMain(-list) = %d, want 0", code)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestFailedCellFailsFigure is the end-to-end failure contract: a cell that
// errors (here tab2's cell for an application that does not exist) fails its
// figure. The binary writes no CSV for that figure, lists the cell under
// failed_cells in run.json, and exits 1, while the figures that did not
// fail are still written.
func TestFailedCellFailsFigure(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-blocks", "2000", "-apps", "kafka,nosuch", "-quiet", "-csv", dir, "tab1", "tab2"}
	if code := runMain(args, io.Discard, io.Discard); code != 1 {
		t.Fatalf("runMain = %d, want 1", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "tab1.csv")); err != nil {
		t.Errorf("tab1.csv not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tab2.csv")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("tab2.csv written for a failed figure (stat err %v)", err)
	}
	man := readManifest(t, filepath.Join(dir, "run.json"))
	if man.Status != "failed" {
		t.Errorf("manifest status = %q, want failed", man.Status)
	}
	var tab2 *telemetry.FigureRun
	for i := range man.Figures {
		if man.Figures[i].ID == "tab2" {
			tab2 = &man.Figures[i]
		}
	}
	if tab2 == nil || tab2.Error == "" || len(tab2.FailedCells) != 1 || tab2.FailedCells[0].Cell != "tab2/nosuch" {
		t.Errorf("tab2 manifest entry = %+v, want an error and one failed cell tab2/nosuch", tab2)
	}
}

// TestManifestRecordsMemoTraffic: run.json's memo block shows how much work
// the figures shared, without -telemetry. Per app, tab2 simulates LRU and
// fig2 asks for it again plus four perfect-structure variants: five timing
// simulations and one hit, all walking one timing path, over one trace
// generated from one program.
func TestManifestRecordsMemoTraffic(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-blocks", "1000", "-apps", "kafka,postgres", "-quiet", "-csv", dir, "tab2", "fig2"}
	if code := runMain(args, io.Discard, io.Discard); code != 0 {
		t.Fatalf("runMain = %d, want 0", code)
	}
	man := readManifest(t, filepath.Join(dir, "run.json"))
	want := map[string]telemetry.MemoTraffic{
		"programs":      {Misses: 2},
		"plans":         {},
		"behavior_runs": {},
		"timing_runs":   {Hits: 2, Misses: 10},
		"timing_paths":  {Hits: 8, Misses: 2},
	}
	if !reflect.DeepEqual(man.Memo, want) {
		t.Errorf("manifest memo = %+v, want %+v", man.Memo, want)
	}
}

// TestWriteSVGFormSelection: a parameter sweep charts as lines, any other
// table with a numeric column as grouped bars, and a table of labels gets no
// SVG.
func TestWriteSVGFormSelection(t *testing.T) {
	dir := t.TempDir()
	cols := []string{"x", "y"}
	sweep := &experiments.Table{Name: "fig19", Title: "t", Columns: cols}
	bars := &experiments.Table{Name: "fig8", Title: "t", Columns: cols}
	for i, v := range []float64{0.05, 0.08} {
		sweep.AddRow(experiments.Count(i+1), experiments.Pct(v))
		bars.AddRow(experiments.Count(i+1), experiments.Pct(v))
	}
	labels := &experiments.Table{Name: "tab1", Title: "t", Columns: []string{"parameter", "value"}}
	labels.AddRow(experiments.Label("CPU"), experiments.Label("fast"))
	for _, tbl := range []*experiments.Table{sweep, bars, labels} {
		if err := writeSVG(dir, tbl.Name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	read := func(id string) string {
		b, err := os.ReadFile(filepath.Join(dir, id+".svg"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if svg := read("fig19"); !strings.Contains(svg, "<polyline") {
		t.Error("fig19 should render as a line chart")
	}
	if svg := read("fig8"); !strings.Contains(svg, "<rect x=") || strings.Contains(svg, "<polyline") {
		t.Error("fig8 should render as bars")
	}
	if _, err := os.Stat(filepath.Join(dir, "tab1.svg")); !os.IsNotExist(err) {
		t.Errorf("tab1 should get no SVG (stat: %v)", err)
	}
}
