package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"uopsim/internal/inspect"
	"uopsim/internal/parallel"
	"uopsim/internal/profiles"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// renderAll runs ids through RunMany at the given worker budget and returns
// the concatenated CSV+Markdown of every table, plus the emit order.
func renderAll(t *testing.T, workers int, ids []string) (string, []string) {
	t.Helper()
	ctx := smallCtx()
	ctx.Workers = workers
	var order []string
	results := RunMany(ctx, ids, func(r RunResult) { order = append(order, r.ID) })
	var buf strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("workers=%d %s: %v", workers, r.ID, r.Err)
		}
		buf.WriteString(renderTable(t, r.Table))
	}
	return buf.String(), order
}

// TestRunManyWorkerInvariance is the determinism contract of the parallel
// harness: rendered output must be byte-identical at any worker count, and
// emit must deliver results in input order regardless of completion order.
// tab2 covers the timing path, sens-fragmentation four sweeps reusing the
// same cell labels, fig8 FLACK profiling and the profile cache, fig10 the
// offline solver fan-out.
func TestRunManyWorkerInvariance(t *testing.T) {
	ids := []string{"tab2", "sens-fragmentation", "fig8", "fig10"}
	ref, refOrder := renderAll(t, 1, ids)
	for i, id := range ids {
		if refOrder[i] != id {
			t.Fatalf("serial emit order = %v", refOrder)
		}
	}
	for _, workers := range []int{4, 0} {
		got, order := renderAll(t, workers, ids)
		if got != ref {
			t.Errorf("workers=%d: rendered output differs from the serial run", workers)
		}
		for i, id := range ids {
			if order[i] != id {
				t.Fatalf("workers=%d: emit order = %v, want input order %v", workers, order, ids)
			}
		}
	}
}

// TestRunManyUnknownID: an unknown experiment id must surface as a
// RunResult error without disturbing its neighbours.
func TestRunManyUnknownID(t *testing.T) {
	ctx := smallCtx()
	results := RunMany(ctx, []string{"tab1", "nosuch"}, nil)
	if results[0].Err != nil || results[0].Table == nil {
		t.Errorf("tab1: err=%v table=%v", results[0].Err, results[0].Table)
	}
	if results[1].Err == nil {
		t.Error("nosuch: expected an error")
	}
}

// TestProfileSingleflight closes the duplicate-compute window: N concurrent
// Profile calls for the same key must invoke CollectObserved exactly once
// and hand every caller the same *profiles.Profile.
func TestProfileSingleflight(t *testing.T) {
	old := collectProfile
	var calls atomic.Int64
	collectProfile = func(pws []trace.PW, cfg uopcache.Config, src profiles.Source, opts profiles.CollectOptions) *profiles.Profile {
		calls.Add(1)
		return old(pws, cfg, src, opts)
	}
	defer func() { collectProfile = old }()

	ctx := NewContext(2000)
	ctx.Apps = []string{"kafka"}
	const n = 8
	profs := make([]*profiles.Profile, n)
	errs := make([]error, n)
	parallel.ForEach(nil, n, n, func(i int) {
		profs[i], errs[i] = ctx.Profile("kafka", 0, profiles.SourceFLACK)
	})
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if profs[i] != profs[0] {
			t.Errorf("caller %d got a different profile pointer", i)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("CollectObserved ran %d times, want exactly 1", got)
	}
}

// TestTraceSingleflight: same exactly-once contract for trace generation,
// counted through the span log's singleflight compute spans.
func TestTraceSingleflight(t *testing.T) {
	ctx := NewContext(2000)
	ctx.Spans = inspect.NewSpanLog()
	const n = 8
	pws := make([][]trace.PW, n)
	errs := make([]error, n)
	parallel.ForEach(nil, n, n, func(i int) {
		_, pws[i], errs[i] = ctx.Trace("kafka", 0)
	})
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if &pws[i][0] != &pws[0][0] {
			t.Errorf("caller %d got a different PW slice", i)
		}
	}
	var buf bytes.Buffer
	if err := ctx.Spans.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var log struct {
		TraceEvents []struct {
			Cat, Name string
			Args      map[string]string
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	computes := 0
	for _, ev := range log.TraceEvents {
		if ev.Cat == "singleflight" && ev.Name == "kafka/0/2000" && ev.Args["state"] == "compute" {
			computes++
		}
	}
	if computes != 1 {
		t.Errorf("trace generated %d times, want exactly 1", computes)
	}
}

// TestWithConfigSharesScheduler: a derived-config context must keep the
// parent's scheduler (budget + timings) while isolating its result caches.
func TestWithConfigSharesScheduler(t *testing.T) {
	ctx := smallCtx()
	derived := ctx.withConfig(ctx.Cfg)
	if derived.sched != ctx.sched {
		t.Error("withConfig must share the scheduler")
	}
	if derived.caches == ctx.caches {
		t.Error("withConfig must isolate the result caches")
	}
	if ctx.scoped("x").caches != ctx.caches {
		t.Error("scoped must share the caches")
	}
}
