package offline

import (
	"runtime/debug"
	"testing"

	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// TestRunBeladyAllocsFixed pins the allocations of one Belady replay of
// kafka's 20,000-block trace at the default geometry. Over a prepared trace
// the replay allocates its cache and its bookkeeping once; without one it
// also prepares the trace, 51 allocations more. Nothing is allocated per
// lookup. The collector is off during the count: a collection adds
// allocations of the runtime's own.
func TestRunBeladyAllocsFixed(t *testing.T) {
	const wantOwn, wantPrepared = 64, 13
	spec, err := workload.Get("kafka")
	if err != nil {
		t.Fatal(err)
	}
	pws := trace.FormPWs(workload.GenerateSpec(spec, 20000, 0), 0)
	cfg := uopcache.DefaultConfig()
	pt := uopcache.Prepare(cfg, pws)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	own := testing.AllocsPerRun(5, func() { RunBelady(pws, cfg, Options{}) })
	prepared := testing.AllocsPerRun(5, func() { RunBelady(pws, cfg, Options{Prepared: pt}) })
	if own != wantOwn {
		t.Errorf("RunBelady: %.0f allocations, want %d", own, wantOwn)
	}
	if prepared != wantPrepared {
		t.Errorf("RunBelady over a prepared trace: %.0f allocations, want %d", prepared, wantPrepared)
	}
}
