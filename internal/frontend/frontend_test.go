package frontend_test

import (
	"runtime"
	"strings"
	"testing"

	"uopsim/internal/backend"
	"uopsim/internal/branch"
	"uopsim/internal/cache"
	"uopsim/internal/frontend"
	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

func build(cfg frontend.Config) *frontend.Frontend {
	uc := uopcache.New(uopcache.DefaultConfig(), policy.NewLRU())
	l1i := cache.New(cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 1})
	return frontend.New(cfg, uc, l1i)
}

// newPath builds blocks' path under the default predictor and backend.
func newPath(blocks []trace.Block, pws []trace.PW) *frontend.Path {
	return frontend.NewPath(blocks, pws, branch.DefaultConfig(), backend.DefaultConfig())
}

// run drives f over blocks and their FormPWs windows.
func run(f *frontend.Frontend, blocks []trace.Block) frontend.Result {
	return f.Run(newPath(blocks, trace.FormPWs(blocks, 0)))
}

// loopTrace builds a tight loop of nBlocks repeated iters times.
func loopTrace(nBlocks, iters int) []trace.Block {
	var blocks []trace.Block
	for it := 0; it < iters; it++ {
		for i := 0; i < nBlocks; i++ {
			addr := uint64(0x1000 + i*16)
			b := trace.Block{Addr: addr, Bytes: 16, NumInst: 4, NumUops: 4}
			if i == nBlocks-1 {
				b.Kind = trace.BranchUncond
				b.Taken = true
				b.Target = 0x1000
				b.BranchPC = addr + 12
			}
			blocks = append(blocks, b)
		}
	}
	return blocks
}

func TestLoopIPCPositive(t *testing.T) {
	f := build(frontend.DefaultConfig())
	res := run(f, loopTrace(4, 500))
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	ipc := res.IPC()
	if ipc <= 0.3 || ipc > 6 {
		t.Errorf("loop IPC = %.2f, implausible", ipc)
	}
	// A tight loop must mostly hit the uop cache after warmup.
	if res.UopCache.UopMissRate() > 0.2 {
		t.Errorf("loop uop miss rate %.2f", res.UopCache.UopMissRate())
	}
}

func TestPerfectUopCacheFasterAndColder(t *testing.T) {
	// A footprint-heavy workload: perfect uop cache must beat real one
	// in IPC and decode no uops.
	spec, _ := workload.Get("wordpress")
	blocks := workload.GenerateSpec(spec, 30000, 0)

	real := build(frontend.DefaultConfig())
	resReal := run(real, blocks)

	pcfg := frontend.DefaultConfig()
	pcfg.PerfectUopCache = true
	perfect := build(pcfg)
	resPerfect := run(perfect, blocks)

	if resPerfect.Events.DecodedUops != 0 {
		t.Errorf("perfect uop cache decoded %d uops", resPerfect.Events.DecodedUops)
	}
	if resPerfect.IPC() <= resReal.IPC() {
		t.Errorf("perfect uop cache IPC %.3f <= real %.3f", resPerfect.IPC(), resReal.IPC())
	}
	if resReal.Events.DecodedUops == 0 {
		t.Error("real run never decoded — workload too small?")
	}
}

func TestPerfectBPRemovesFlushes(t *testing.T) {
	spec, _ := workload.Get("wordpress")
	blocks := workload.GenerateSpec(spec, 20000, 0)
	cfg := frontend.DefaultConfig()
	cfg.PerfectBP = true
	f := build(cfg)
	res := run(f, blocks)
	if res.Events.MispredictFlushes != 0 {
		t.Errorf("perfect BP flushed %d times", res.Events.MispredictFlushes)
	}
	base := run(build(frontend.DefaultConfig()), blocks)
	if base.Events.MispredictFlushes == 0 {
		t.Error("real BP never mispredicted wordpress — implausible")
	}
	if res.IPC() <= base.IPC() {
		t.Errorf("perfect BP IPC %.3f <= real %.3f", res.IPC(), base.IPC())
	}
}

func TestPerfectICacheNoMisses(t *testing.T) {
	spec, _ := workload.Get("clang")
	blocks := workload.GenerateSpec(spec, 20000, 0)
	cfg := frontend.DefaultConfig()
	cfg.PerfectICache = true
	res := run(build(cfg), blocks)
	if res.Events.ICacheMisses != 0 {
		t.Errorf("perfect icache missed %d times", res.Events.ICacheMisses)
	}
}

func TestEventAccounting(t *testing.T) {
	spec, _ := workload.Get("kafka")
	blocks := workload.GenerateSpec(spec, 20000, 0)
	res := run(build(frontend.DefaultConfig()), blocks)
	e := res.Events
	if e.UopCacheLookups == 0 || e.BPLookups == 0 || e.BTBLookups == 0 {
		t.Fatalf("missing events: %+v", e)
	}
	if e.UopCacheHitUops+e.DecodedUops != res.Uops {
		t.Errorf("uop provenance broken: %d + %d != %d", e.UopCacheHitUops, e.DecodedUops, res.Uops)
	}
	if e.Cycles != res.Cycles {
		t.Error("cycle mismatch between events and result")
	}
	if e.Switches == 0 {
		t.Error("no path switches on a mixed workload")
	}
	if res.Branch.Instructions != res.Instructions {
		t.Error("instruction count mismatch")
	}
}

// TestInclusionInTimingPath: L1i evictions invalidate uop cache windows in
// the timing model too.
func TestInclusionInTimingPath(t *testing.T) {
	spec, _ := workload.Get("clang") // big footprint: L1i will evict
	blocks := workload.GenerateSpec(spec, 40000, 0)
	res := run(build(frontend.DefaultConfig()), blocks)
	if res.UopCache.Invalidations == 0 {
		t.Error("no inclusive invalidations despite icache pressure")
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec, _ := workload.Get("python")
	blocks := workload.GenerateSpec(spec, 10000, 0)
	r1 := run(build(frontend.DefaultConfig()), blocks)
	r2 := run(build(frontend.DefaultConfig()), blocks)
	if r1.Cycles != r2.Cycles || r1.Events != r2.Events {
		t.Error("timing model not deterministic")
	}
}

func TestMPKIOrdering(t *testing.T) {
	// Workloads with higher target MPKI must measure higher MPKI in the
	// timing model (monotonicity over a wide gap).
	lo, _ := workload.Get("postgres")  // 0.41
	hi, _ := workload.Get("wordpress") // 5.64
	resLo := run(build(frontend.DefaultConfig()), workload.GenerateSpec(lo, 40000, 0))
	resHi := run(build(frontend.DefaultConfig()), workload.GenerateSpec(hi, 40000, 0))
	if resLo.Branch.MPKI() >= resHi.Branch.MPKI() {
		t.Errorf("MPKI ordering violated: postgres %.2f >= wordpress %.2f",
			resLo.Branch.MPKI(), resHi.Branch.MPKI())
	}
}

// TestRunRejectsForeignWindows: a path holds only trace.FormPWs(blocks, 0)'s
// windows, and NewPath panics on any other sequence for the same blocks.
func TestRunRejectsForeignWindows(t *testing.T) {
	spec, _ := workload.Get("kafka")
	blocks := workload.GenerateSpec(spec, 4000, 0)
	pws := trace.FormPWs(blocks, 0)
	cases := []struct {
		name string
		pws  []trace.PW
	}{
		{"clasp", trace.FormPWsWith(blocks, &trace.Former{MaxUops: trace.DefaultMaxUops, CrossLine: true, MaxLines: 2})},
		{"maxUops16", trace.FormPWs(blocks, 16)},
		{"truncated", pws[:len(pws)-1]},
		{"nil", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				err, ok := recover().(error)
				if !ok || !strings.Contains(err.Error(), "not trace.FormPWs(blocks, 0)") {
					t.Errorf("NewPath panicked with %v, want a FormPWs mismatch", err)
				}
			}()
			newPath(blocks, tc.pws)
		})
	}
}

// TestRunAllocsPerBlock bounds the walk's allocations on a prebuilt path,
// not counting New and its substrate: forming windows and building the
// path are one-time costs per trace, so Run itself only allocates for cache
// state.
func TestRunAllocsPerBlock(t *testing.T) {
	spec, _ := workload.Get("kafka")
	blocks := workload.GenerateSpec(spec, 20000, 0)
	p := newPath(blocks, trace.FormPWs(blocks, 0))
	f := build(frontend.DefaultConfig())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.Run(p)
	runtime.ReadMemStats(&after)
	if perBlock := float64(after.Mallocs-before.Mallocs) / float64(len(blocks)); perBlock >= 0.1 {
		t.Errorf("Run allocates %.3f objects per block, want < 0.1", perBlock)
	}
}
