package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// renderTable returns a table's CSV followed by its Markdown, the bytes the
// determinism tests compare.
func renderTable(t *testing.T, tbl *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// onCollection swaps the collectProfile seam for the rest of the test: hook
// runs just before the nth (1-based) profile collection, which then goes
// ahead unchanged unless hook panics. At one worker the collection order is
// the serial schedule's, so n picks a cell deterministically.
func onCollection(t *testing.T, n int64, hook func()) {
	t.Helper()
	old := collectProfile
	var calls atomic.Int64
	collectProfile = func(pws []trace.PW, cfg uopcache.Config, src profiles.Source, opts profiles.CollectOptions) *profiles.Profile {
		if calls.Add(1) == n {
			hook()
		}
		return old(pws, cfg, src, opts)
	}
	t.Cleanup(func() { collectProfile = old })
}

// TestCancelInsideCellFailsExperiment: cancelling the campaign context from
// inside a cell (the path SIGINT takes in cmd/experiments) fails the
// experiment that was running with context.Canceled and no table, and
// leaves the experiments that finished before it byte-identical to an
// uninterrupted run. tab2 exercises the timing path, sens-fragmentation four
// sweeps reusing the same cell labels, and fig8 FLACK profiling, where the
// cancellation lands.
func TestCancelInsideCellFailsExperiment(t *testing.T) {
	ids := []string{"tab2", "sens-fragmentation", "fig8"}

	ref := smallCtx()
	ref.Workers = 1
	var want []string
	for _, r := range RunMany(ref, ids[:2], nil) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		want = append(want, renderTable(t, r.Table))
	}

	// Cancel while fig8's second cell collects its profile. That cell's
	// result is discarded, so fig8 fails.
	sigCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := smallCtx()
	ctx.Workers = 1
	ctx.Ctx = sigCtx
	onCollection(t, 2, cancel)
	results := RunMany(ctx, ids, nil)
	if r := results[2]; !errors.Is(r.Err, context.Canceled) || r.Table != nil {
		t.Fatalf("fig8: err=%v table=%v, want context.Canceled and no table", r.Err, r.Table)
	}
	for i, r := range results[:2] {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if got := renderTable(t, r.Table); got != want[i] {
			t.Errorf("%s differs from the uninterrupted run", r.ID)
		}
	}
}

// TestCellErrorFailsExperiment: a cell that returns an error fails its
// experiment — no table, the error in Err, and exactly one failed-cell
// record naming the cell, with no stack because nothing panicked.
func TestCellErrorFailsExperiment(t *testing.T) {
	ctx := smallCtx()
	ctx.Workers = 1
	ctx.Apps = []string{"kafka", "nosuch"}
	r := RunMany(ctx, []string{"fig8"}, nil)[0]
	if r.Err == nil || r.Table != nil {
		t.Fatalf("err=%v table=%v, want a failed experiment with no table", r.Err, r.Table)
	}
	if len(r.Failed) != 1 {
		t.Fatalf("Failed = %+v, want exactly one record", r.Failed)
	}
	f := r.Failed[0]
	if f.Cell != "fig8/nosuch" || f.Error != r.Err.Error() || f.Stack != "" {
		t.Errorf("failure record = %+v, err = %v", f, r.Err)
	}
}

// TestPanicContainment: a panicking cell must be caught and converted into
// the cell's error, failing its experiment with the stack in the failed-cell
// record instead of tearing down the campaign. The panic happens inside a
// shared profile collection, so a later caller of the same profile must get
// an error too, not a zero value.
func TestPanicContainment(t *testing.T) {
	onCollection(t, 1, func() { panic("collection exploded") })
	ctx := smallCtx()
	ctx.Workers = 1
	r := RunMany(ctx, []string{"fig8"}, nil)[0]
	if r.Err == nil || r.Table != nil {
		t.Fatalf("err=%v table=%v, want a failed experiment with no table", r.Err, r.Table)
	}
	if len(r.Failed) != 1 {
		t.Fatalf("Failed = %+v, want exactly one record", r.Failed)
	}
	f := r.Failed[0]
	if f.Cell != "fig8/kafka" || !strings.Contains(f.Error, "cell panic: collection exploded") {
		t.Errorf("failure record = %+v", f)
	}
	if !strings.Contains(f.Stack, "onCollection") {
		t.Errorf("panic failure record carries no stack through the panic site:\n%s", f.Stack)
	}
	if p, err := ctx.Profile("kafka", 0, profiles.SourceFLACK); err == nil {
		t.Errorf("Profile after a panicked collection = %v, nil; want an error", p)
	}
}

// TestCancelledCampaignDrains: with the campaign context already cancelled,
// every requested experiment must come back promptly with the context's
// error (and in input order), not hang or half-run.
func TestCancelledCampaignDrains(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := smallCtx()
	ctx.Workers = 2
	ctx.Ctx = cctx
	ids := []string{"tab2", "fig8"}
	var emitted []string
	results := RunMany(ctx, ids, func(r RunResult) { emitted = append(emitted, r.ID) })
	for i, r := range results {
		if r.ID != ids[i] {
			t.Fatalf("results[%d] = %s, want %s", i, r.ID, ids[i])
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.ID, r.Err)
		}
	}
	for i, id := range emitted {
		if id != ids[i] {
			t.Fatalf("emit order = %v", emitted)
		}
	}
	if len(emitted) != len(ids) {
		t.Fatalf("emitted %d of %d results", len(emitted), len(ids))
	}
}

// TestInterruptFlushesFailedCells is the S-series manifest contract: a
// campaign interrupted by cancellation (the SIGINT path in cmd/experiments)
// must still surface every failed cell that occurred before the interrupt —
// in the RunResult of the experiment that owned it AND in a manifest built
// the way the driver builds one, alongside Status = interrupted.
func TestInterruptFlushesFailedCells(t *testing.T) {
	sigCtx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ctx := smallCtx()
	ctx.Workers = 1
	ctx.Ctx = sigCtx
	onCollection(t, 1, func() { panic("collection exploded") })

	man := telemetry.NewRunManifest("experiments", nil)
	ids := []string{"fig8", "tab2"}
	emit := func(r RunResult) {
		man.Figures = append(man.Figures, telemetry.FigureRun{
			ID: r.ID, WallSeconds: r.WallSeconds, Apps: r.Apps, FailedCells: r.Failed,
		})
		if r.Err != nil {
			man.Failures = append(man.Failures, r.ID+": "+r.Err.Error())
		}
		if r.ID == "fig8" {
			// Simulate SIGINT arriving right after fig8 finished: tab2 is
			// still queued and must be abandoned.
			cancel()
		}
	}
	out := RunMany(ctx, ids, emit)

	if len(out[0].Failed) == 0 {
		t.Fatal("fig8 recorded no failed cells despite the panicking collection")
	}
	if out[0].Failed[0].Cell != "fig8/kafka" {
		t.Errorf("failed cell = %q, want fig8/kafka", out[0].Failed[0].Cell)
	}
	if out[1].Err == nil || !errors.Is(out[1].Err, context.Canceled) {
		t.Errorf("abandoned tab2 err = %v, want context.Canceled", out[1].Err)
	}

	man.Status = telemetry.StatusInterrupted
	man.Finish()
	var buf bytes.Buffer
	if err := man.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if !strings.Contains(doc, `"status": "interrupted"`) {
		t.Errorf("manifest missing interrupted status:\n%s", doc)
	}
	if !strings.Contains(doc, `"failed_cells"`) || !strings.Contains(doc, "fig8/kafka") {
		t.Errorf("interrupted manifest does not flush failed_cells:\n%s", doc)
	}
	// Every requested id appears, including the abandoned one.
	if !strings.Contains(doc, `"id": "tab2"`) {
		t.Errorf("abandoned experiment missing from manifest:\n%s", doc)
	}
}
