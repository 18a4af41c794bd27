package policy_test

import (
	"runtime/debug"
	"testing"

	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// TestReplayAllocsZero: once a cache has replayed a trace, replaying it
// again allocates nothing under any of the nine online policies. Hits,
// victim choice, eviction and insertion touch only the per-slot and per-set
// metadata each policy sized in Bind, and the in-flight insertion queue
// reuses its storage. The trace is kafka's 20,000 blocks at the default
// geometry, FURBYS with FLACK-profiled weights. The collector is off during
// the count: a collection adds allocations of the runtime's own.
func TestReplayAllocsZero(t *testing.T) {
	spec, err := workload.Get("kafka")
	if err != nil {
		t.Fatal(err)
	}
	pws := trace.FormPWs(workload.GenerateSpec(spec, 20000, 0), 0)
	cfg := uopcache.DefaultConfig()
	weights := profiles.Collect(pws, cfg, profiles.SourceFLACK).Weights(cfg, 3)
	pt := uopcache.Prepare(cfg, pws)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, pol := range []uopcache.Policy{
		policy.NewLRU(),
		policy.NewRandom(1),
		policy.NewSRRIP(),
		policy.NewSHiPPP(),
		policy.NewDRRIP(),
		policy.NewGHRP(),
		policy.NewMockingjay(),
		policy.NewThermometer(nil),
		policy.NewFURBYS(policy.DefaultFURBYSConfig(), weights),
	} {
		beh := uopcache.NewBehavior(uopcache.New(cfg, pol), nil, pt)
		beh.Run()
		if got := testing.AllocsPerRun(3, func() { beh.Run() }); got != 0 {
			t.Errorf("%s: a second replay allocated %.0f times, want 0", pol.Name(), got)
		}
	}
}
