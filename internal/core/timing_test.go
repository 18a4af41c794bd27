package core_test

import (
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/frontend"
	"uopsim/internal/policy"
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
// fixed trace (kafka, 4,000 blocks, LRU at the Table-I config). Measured:
// 36 per RunTiming, of which 21 build the trace's path (predictor tables,
// the two data caches, the step and stall arrays) and the rest are the
// micro-op cache, its policy and the L1i. The caches and the BTB keep each
// structure in one backing array, so no count here grows with the set
// count; before that, one run took 3,680, and 484 while the micro-op cache
// still allocated per line gaining a set.
func TestRunTimingAllocsFixed(t *testing.T) {
	const maxRun, maxPath = 59, 24
	blocks, pws, err := core.TraceFor("kafka", 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	run := testing.AllocsPerRun(5, func() {
		core.RunTiming(blocks, pws, cfg, policy.NewLRU(), core.Telemetry{})
	})
	if run > maxRun {
		t.Errorf("RunTiming: %.0f allocations, want at most %d", run, maxRun)
	}
	path := testing.AllocsPerRun(5, func() {
		frontend.NewPath(blocks, pws, cfg.Branch, cfg.Backend)
	})
	if path > maxPath {
		t.Errorf("NewPath: %.0f allocations, want at most %d", path, maxPath)
	}
	p := frontend.NewPath(blocks, pws, cfg.Branch, cfg.Backend)
	reuse := testing.AllocsPerRun(5, func() {
		if _, err := core.RunTimingByNameWith("lru", blocks, pws, cfg, nil, core.TimingOptions{Path: p}); err != nil {
			t.Fatal(err)
		}
	})
	if reuse > run-path {
		t.Errorf("a run over a prebuilt path allocates %.0f, want at most %.0f (a run minus a path build)", reuse, run-path)
	}
}

// TestRunBehaviorAllocsFixed pins the allocations of one behaviour run over
// a prepared trace: the micro-op cache, its policy and (with the inclusive
// L1i) the icache, and nothing per lookup, insertion or eviction. The
// cache's line-count table is sized in New and a resident's lines follow
// from its start and size, so the count is the same at 4,000 and 16,000
// blocks (measured 12-21; Mockingjay 29-34, see below). A run that
// allocated per line gaining a set took 460-642, growing with the trace.
//
// Mockingjay's reuse-distance training history is a map keyed by window
// start that must outlive eviction, so it grows as a longer trace reaches
// more distinct windows (29 -> 31 allocations here). The growth check leaves
// that policy out; the bound still covers it.
func TestRunBehaviorAllocsFixed(t *testing.T) {
	const maxRun = 39
	cfg := core.DefaultConfig()
	for _, name := range []string{"lru", "srrip", "ghrp", "mockingjay"} {
		for _, ic := range []bool{false, true} {
			var allocs [2]float64
			for i, blocks := range []int{4000, 16000} {
				_, pws, err := core.TraceFor("kafka", blocks, 0)
				if err != nil {
					t.Fatal(err)
				}
				opts := core.BehaviorOptions{WithICache: ic, Prepared: uopcache.Prepare(cfg.UopCache, pws)}
				allocs[i] = testing.AllocsPerRun(3, func() {
					pol, err := core.NewPolicy(name, nil, cfg.UopCache, policy.FURBYSConfig{})
					if err != nil {
						t.Fatal(err)
					}
					core.RunBehavior(pws, cfg, pol, opts)
				})
			}
			t.Logf("%s icache=%v: %.0f allocations at 4,000 blocks, %.0f at 16,000", name, ic, allocs[0], allocs[1])
			if allocs[0] > maxRun || allocs[1] > maxRun {
				t.Errorf("%s icache=%v: %.0f and %.0f allocations, want at most %d", name, ic, allocs[0], allocs[1], maxRun)
			}
			if allocs[1] > allocs[0] && name != "mockingjay" {
				t.Errorf("%s icache=%v: allocations grow with trace length (%.0f at 4,000 blocks, %.0f at 16,000)", name, ic, allocs[0], allocs[1])
			}
		}
	}
}
