package core_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/frontend"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/uopcache"
)

func TestRunTimingByNameAllPolicies(t *testing.T) {
	cfg := core.DefaultConfig()
	blocks, pws, err := core.TraceFor("kafka", 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := append(core.PolicyNames(), core.OfflineNames()...)
	ipcs := map[string]float64{}
	for _, name := range names {
		res, err := core.RunTimingByName(name, blocks, pws, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Frontend.IPC() <= 0 {
			t.Errorf("%s: IPC = %v", name, res.Frontend.IPC())
		}
		if res.PPW <= 0 {
			t.Errorf("%s: PPW = %v", name, res.PPW)
		}
		ipcs[name] = res.Frontend.IPC()
	}
	// FLACK must not have a lower IPC than LRU on this workload.
	if ipcs["flack"] < ipcs["lru"]*0.999 {
		t.Errorf("flack IPC %.4f below lru %.4f", ipcs["flack"], ipcs["lru"])
	}
	if _, err := core.RunTimingByName("nosuch", blocks, pws, cfg, nil); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestTimingDeterministicByName(t *testing.T) {
	cfg := core.DefaultConfig()
	blocks, pws, err := core.TraceFor("python", 8000, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.RunTimingByName("furbys", blocks, pws, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.RunTimingByName("furbys", blocks, pws, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Frontend.Cycles != r2.Frontend.Cycles || r1.Power.Total() != r2.Power.Total() {
		t.Error("timing-by-name not deterministic")
	}
}

func TestNonInclusiveNeverWorse(t *testing.T) {
	cfg := core.DefaultConfig()
	blocks, _, err := core.TraceFor("clang", 30000, 0)
	if err != nil {
		t.Fatal(err)
	}
	incl, err := core.RunTimingByName("lru", blocks, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Frontend.NonInclusive = true
	non, err := core.RunTimingByName("lru", blocks, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if non.Frontend.UopCache.Invalidations != 0 {
		t.Errorf("non-inclusive run invalidated %d windows", non.Frontend.UopCache.Invalidations)
	}
	if incl.Frontend.UopCache.Invalidations == 0 {
		t.Error("inclusive clang run should invalidate under L1i pressure")
	}
	if non.Frontend.UopCache.UopMissRate() > incl.Frontend.UopCache.UopMissRate() {
		t.Errorf("non-inclusive miss rate %.4f worse than inclusive %.4f",
			non.Frontend.UopCache.UopMissRate(), incl.Frontend.UopCache.UopMissRate())
	}
}

// TestRunTimingAllocsFixed pins the allocations of one timing run on a
// fixed trace (kafka, 4,000 blocks, LRU at the Table-I config): 31 per
// RunTiming, of which 20 build the trace's path (predictor tables, the two
// data caches, the step and stall arrays) and the rest are the micro-op
// cache, its policy and the L1i. A run over a prebuilt path allocates 11.
// The caches and the BTB keep each structure in one backing array, so no
// count here grows with the set count. The counts are taken with the
// collector off: a collection during the count adds allocations of the
// runtime's own (two here).
func TestRunTimingAllocsFixed(t *testing.T) {
	const wantRun, wantPath, wantReuse = 31, 20, 11
	blocks, pws, err := core.TraceFor("kafka", 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := testing.AllocsPerRun(5, func() {
		core.RunTiming(blocks, pws, cfg, policy.NewLRU(), core.Telemetry{})
	})
	if run != wantRun {
		t.Errorf("RunTiming: %.0f allocations, want %d", run, wantRun)
	}
	path := testing.AllocsPerRun(5, func() {
		frontend.NewPath(blocks, pws, cfg.Branch, cfg.Backend)
	})
	if path != wantPath {
		t.Errorf("NewPath: %.0f allocations, want %d", path, wantPath)
	}
	p := frontend.NewPath(blocks, pws, cfg.Branch, cfg.Backend)
	reuse := testing.AllocsPerRun(5, func() {
		if _, err := core.RunTimingByNameWith("lru", blocks, pws, cfg, nil, core.TimingOptions{Path: p}); err != nil {
			t.Fatal(err)
		}
	})
	if reuse != wantReuse {
		t.Errorf("a run over a prebuilt path: %.0f allocations, want %d", reuse, wantReuse)
	}
}

// TestNewPathBytesFixed pins the bytes frontend.NewPath allocates over a
// fixed trace (kafka, 20,000 blocks, the Table-I config): the predictor's
// tables, among them the BTB at 16 bytes an entry; the L1d and L2 at 8
// bytes a way; and the path's step and stall arrays. The allocation counts
// of TestRunTimingAllocsFixed do not see an entry grow; a per-way field
// such as an LRU stamp adds 135,168 bytes here. The collector is off, as
// there. The runtime's own allocations during a call only ever add bytes
// (a rare call reads 5,504 more), so the check takes the fewest of five
// calls.
func TestNewPathBytesFixed(t *testing.T) {
	const want = 386720
	blocks, pws, err := core.TraceFor("kafka", 20000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		frontend.NewPath(blocks, pws, cfg.Branch, cfg.Backend)
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
	}
	if fewest != want {
		t.Errorf("NewPath: %d bytes allocated, want %d", fewest, want)
	}
}

// TestRunBehaviorAllocsFixed pins the allocations of one behaviour run over
// a prepared kafka trace at 4,000 and 20,000 blocks: the micro-op cache, its
// policy and the run's result, plus 3 for the inclusive L1i, and nothing per
// lookup, insertion or eviction. The cache's line-count table is sized in
// New and a resident's lines follow from its start and size, so for most
// policies the count does not grow with the trace.
//
// Two policies grow with the trace. Mockingjay's reuse-distance training
// history is a map keyed by window start that must outlive eviction, so it
// grows as a longer trace evicts more distinct windows (it is written at
// eviction only, so windows never evicted do not grow it). FURBYS allocates a
// set's eviction and bypass detectors on their first use, so its count
// grows with the sets that have evicted or bypassed. Its weights come from a
// FLACK profile collected outside the count. The collector is off, as in
// TestRunTimingAllocsFixed.
func TestRunBehaviorAllocsFixed(t *testing.T) {
	const icacheAllocs = 3
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := core.DefaultConfig()
	newPolicy := func(name string, weights map[uint64]uint8) uopcache.Policy {
		if name == "furbys" {
			return policy.NewFURBYS(policy.DefaultFURBYSConfig(), weights)
		}
		pol, err := core.NewPolicy(name, nil, cfg.UopCache, policy.FURBYSConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	cases := []struct {
		name string
		want [2]float64 // at 4,000 and 20,000 blocks, without the L1i
	}{
		{"lru", [2]float64{9, 9}},
		{"srrip", [2]float64{11, 11}},
		{"ghrp", [2]float64{16, 16}},
		{"mockingjay", [2]float64{23, 27}},
		{"furbys", [2]float64{26, 65}},
	}
	for i, blocks := range []int{4000, 20000} {
		_, pws, err := core.TraceFor("kafka", blocks, 0)
		if err != nil {
			t.Fatal(err)
		}
		pt := uopcache.Prepare(cfg.UopCache, pws)
		prof := profiles.Collect(pws, cfg.UopCache, profiles.SourceFLACK)
		weights := prof.Weights(cfg.UopCache, policy.DefaultFURBYSConfig().WeightBits)
		for _, tc := range cases {
			for _, ic := range []bool{false, true} {
				want := tc.want[i]
				if ic {
					want += icacheAllocs
				}
				opts := core.BehaviorOptions{WithICache: ic, Prepared: pt}
				got := testing.AllocsPerRun(3, func() {
					core.RunBehavior(pws, cfg, newPolicy(tc.name, weights), opts)
				})
				if got != want {
					t.Errorf("%s icache=%v, %d blocks: %.0f allocations, want %.0f", tc.name, ic, blocks, got, want)
				}
			}
		}
	}
}
