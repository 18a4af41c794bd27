// Package uopsim's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (driving the same experiment
// runners as cmd/experiments, at benchmark-friendly scale), plus
// micro-benchmarks of the core data structures. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale paper numbers come from cmd/experiments; these benchmarks use
// shorter traces and an application subset so the whole suite completes in
// minutes while still exercising every experiment path.
package uopsim

import (
	"testing"

	"uopsim/internal/analysis"
	"uopsim/internal/core"
	"uopsim/internal/experiments"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// benchCtx builds a small-but-representative experiment context.
func benchCtx(apps ...string) *experiments.Context {
	ctx := experiments.NewContext(6000)
	if len(apps) == 0 {
		apps = []string{"kafka", "postgres"}
	}
	ctx.Apps = apps
	return ctx
}

func benchExperiment(b *testing.B, id string, apps ...string) {
	b.Helper()
	run, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := benchCtx(apps...)
		if _, err := run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure ---

func BenchmarkTable1Parameters(b *testing.B)      { benchExperiment(b, "tab1") }
func BenchmarkTable2Applications(b *testing.B)    { benchExperiment(b, "tab2") }
func BenchmarkFig2PerfectStructures(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkSec3BMissClasses(b *testing.B)      { benchExperiment(b, "sec3b") }
func BenchmarkSec3EReuseDistances(b *testing.B)   { benchExperiment(b, "sec3e") }
func BenchmarkFig5ExistingPolicies(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig8FURBYS(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFig9PPW(b *testing.B)               { benchExperiment(b, "fig9") }
func BenchmarkFig10FLACKAblation(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11IPC(b *testing.B)              { benchExperiment(b, "fig11") }
func BenchmarkFig12ISOPerformance(b *testing.B)   { benchExperiment(b, "fig12", "kafka") }
func BenchmarkFig13EnergyBreakdown(b *testing.B)  { benchExperiment(b, "fig13", "clang") }
func BenchmarkFig14EnergyReduction(b *testing.B)  { benchExperiment(b, "fig14", "kafka") }
func BenchmarkFig15ProfileSources(b *testing.B)   { benchExperiment(b, "fig15", "kafka") }
func BenchmarkFig16SizeAssocSweep(b *testing.B)   { benchExperiment(b, "fig16", "kafka") }
func BenchmarkFig17Zen4PPW(b *testing.B)          { benchExperiment(b, "fig17", "kafka") }
func BenchmarkFig18CrossValidation(b *testing.B)  { benchExperiment(b, "fig18", "kafka") }
func BenchmarkFig19WeightBits(b *testing.B)       { benchExperiment(b, "fig19", "kafka") }
func BenchmarkFig20DetectorDepth(b *testing.B)    { benchExperiment(b, "fig20", "kafka") }
func BenchmarkFig21Bypass(b *testing.B)           { benchExperiment(b, "fig21", "kafka") }
func BenchmarkFig22Hotness(b *testing.B)          { benchExperiment(b, "fig22") }
func BenchmarkCoverage(b *testing.B)              { benchExperiment(b, "coverage", "kafka") }

// --- Serial vs parallel harness sweep ---

// benchAllFigures drives a representative multi-experiment sweep through
// RunMany at the given worker budget. The serial/parallel pair measures the
// harness-level speedup (EXPERIMENTS.md records the numbers); output
// equality across worker counts is asserted by the package's determinism
// tests, not here.
func benchAllFigures(b *testing.B, workers int) {
	b.Helper()
	ids := []string{"tab2", "sec3e", "fig5", "fig8", "fig10", "fig15", "fig21", "coverage"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(3000)
		ctx.Apps = []string{"kafka", "postgres"}
		ctx.Workers = workers
		for _, r := range experiments.RunMany(ctx, ids, nil) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkAllFiguresSerial(b *testing.B)   { benchAllFigures(b, 1) }
func BenchmarkAllFiguresParallel(b *testing.B) { benchAllFigures(b, 0) }

// --- Micro-benchmarks of the core building blocks ---
//
// These measure and gate nothing. The allocation counts of their paths are
// pinned exactly by AllocsPerRun tests next to the code (for example
// TestRunBehaviorAllocsFixed, TestReplayAllocsZero and
// TestComputeDecisionsAllocsFixed), and CI's wall-clock gate is a short
// perfbench run of each workload.

func benchTracePWs(b *testing.B, app string, blocks int) []trace.PW {
	b.Helper()
	spec, err := workload.Get(app)
	if err != nil {
		b.Fatal(err)
	}
	return trace.FormPWs(workload.GenerateSpec(spec, blocks, 0), 0)
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	spec, _ := workload.Get("kafka")
	prog := spec.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Generate(20000, 0)
	}
}

// BenchmarkFormPWs measures PW formation over a kafka block trace. The
// Former walks each block's instructions arithmetically, a PW is a
// pointer-free value (its lines follow from its start and size), and the
// output is sized once from the block count, so allocs/op is 1: the output
// slice, allocated once, not once per growth, block or window.
func BenchmarkFormPWs(b *testing.B) {
	spec, _ := workload.Get("kafka")
	blocks := workload.GenerateSpec(spec, 20000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.FormPWs(blocks, 0)
	}
}

func BenchmarkUopCacheLRU(b *testing.B) {
	pt := uopcache.Prepare(uopcache.DefaultConfig(), benchTracePWs(b, "kafka", 20000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := uopcache.New(uopcache.DefaultConfig(), policy.NewLRU())
		uopcache.NewBehavior(c, nil, pt).Run()
	}
}

func BenchmarkUopCacheFURBYS(b *testing.B) {
	pws := benchTracePWs(b, "kafka", 20000)
	cfg := uopcache.DefaultConfig()
	prof := profiles.Collect(pws, cfg, profiles.SourceFLACK)
	w := prof.Weights(cfg, 3)
	pt := uopcache.Prepare(cfg, pws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := uopcache.New(cfg, policy.NewFURBYS(policy.DefaultFURBYSConfig(), w))
		uopcache.NewBehavior(c, nil, pt).Run()
	}
}

// BenchmarkPolicyLookup measures the steady-state per-replay cost of each
// replacement policy: a kafka PW trace replayed through a cache built on
// that policy, after one untimed warm-up replay fills the sets. Hits drive
// OnHit, misses drive Victim/OnEvict/OnInsert, so the numbers cover exactly
// the per-slot metadata paths (dense RRPV/signature arrays instead of
// per-key maps, and the cache's own recency stamps) that the slot-handle
// Policy interface exists for.
func BenchmarkPolicyLookup(b *testing.B) {
	pws := benchTracePWs(b, "kafka", 20000)
	cfg := uopcache.DefaultConfig()
	prof := profiles.Collect(pws, cfg, profiles.SourceFLACK)
	weights := prof.Weights(cfg, 3)
	pt := uopcache.Prepare(cfg, pws)
	cases := []struct {
		name string
		mk   func() uopcache.Policy
	}{
		{"lru", func() uopcache.Policy { return policy.NewLRU() }},
		{"random", func() uopcache.Policy { return policy.NewRandom(1) }},
		{"srrip", func() uopcache.Policy { return policy.NewSRRIP() }},
		{"shippp", func() uopcache.Policy { return policy.NewSHiPPP() }},
		{"drrip", func() uopcache.Policy { return policy.NewDRRIP() }},
		{"ghrp", func() uopcache.Policy { return policy.NewGHRP() }},
		{"mockingjay", func() uopcache.Policy { return policy.NewMockingjay() }},
		{"thermometer", func() uopcache.Policy { return policy.NewThermometer(nil) }},
		{"furbys", func() uopcache.Policy {
			return policy.NewFURBYS(policy.DefaultFURBYSConfig(), weights)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			c := uopcache.New(cfg, tc.mk())
			beh := uopcache.NewBehavior(c, nil, pt)
			beh.Run() // warm to steady state before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				beh.Run()
			}
		})
	}
}

func BenchmarkFLACKSolve(b *testing.B) {
	cfg := uopcache.DefaultConfig()
	pt := uopcache.Prepare(cfg, benchTracePWs(b, "kafka", 20000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offline.ComputeDecisionsPrepared(nil, pt, cfg, offline.CostVC, true, 0, 1)
	}
}

// BenchmarkFLACKSolveParallel is the same solve with the (set, segment)
// fan-out enabled at GOMAXPROCS workers. Compare against BenchmarkFLACKSolve
// for the solver speedup; on a single-core host the two should be within
// noise of each other.
func BenchmarkFLACKSolveParallel(b *testing.B) {
	cfg := uopcache.DefaultConfig()
	pt := uopcache.Prepare(cfg, benchTracePWs(b, "kafka", 20000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offline.ComputeDecisionsPrepared(nil, pt, cfg, offline.CostVC, true, 0, 0)
	}
}

// BenchmarkBeladyReplay passes no prepared trace, so every iteration
// includes building one.
func BenchmarkBeladyReplay(b *testing.B) {
	pws := benchTracePWs(b, "kafka", 20000)
	cfg := uopcache.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offline.RunBelady(pws, cfg, offline.Options{})
	}
}

// BenchmarkBeladyReplayPrepared is the same replay over a prepared trace
// built outside the timed loop: the difference against
// BenchmarkBeladyReplay is the cost of Prepare.
func BenchmarkBeladyReplayPrepared(b *testing.B) {
	pws := benchTracePWs(b, "kafka", 20000)
	cfg := uopcache.DefaultConfig()
	pt := uopcache.Prepare(cfg, pws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offline.RunBelady(pws, cfg, offline.Options{Prepared: pt})
	}
}

// BenchmarkTimingModel measures the timing model alone: the PW sequence is
// formed once outside the timed loop, as every caller holding a trace does.
func BenchmarkTimingModel(b *testing.B) {
	spec, _ := workload.Get("kafka")
	blocks := workload.GenerateSpec(spec, 20000, 0)
	pws := trace.FormPWs(blocks, 0)
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunTiming(blocks, pws, cfg, policy.NewLRU(), core.Telemetry{})
	}
}

// The policy-independent half of a timing run, frontend.NewPath, and each
// of its layers are measured by BenchmarkNewPath in internal/frontend,
// beside the unexported window walk it times alone.

func BenchmarkProfileCollect(b *testing.B) {
	pws := benchTracePWs(b, "kafka", 10000)
	cfg := uopcache.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof := profiles.Collect(pws, cfg, profiles.SourceFLACK)
		prof.Weights(cfg, 3)
	}
}

// BenchmarkSimlintModule times one full static-analysis pass (all eight
// analyzers) over the already-loaded module, call graph prebuilt — the
// steady-state cost CI pays on every simlint run after type-checking.
func BenchmarkSimlintModule(b *testing.B) {
	prog, err := analysis.Load(".", "uopsim/...")
	if err != nil {
		b.Fatalf("Load(uopsim/...): %v", err)
	}
	prog.CallGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := analysis.Run(prog, analysis.All()); len(diags) != 0 {
			b.Fatalf("module is not simlint-clean: %d findings", len(diags))
		}
	}
}

// --- Extension experiments (paper Section VII + DESIGN.md ablations) ---

func BenchmarkSensInclusion(b *testing.B)     { benchExperiment(b, "sens-inclusion", "kafka") }
func BenchmarkSensInsertDelay(b *testing.B)   { benchExperiment(b, "sens-delay", "kafka") }
func BenchmarkSensSegmentLimit(b *testing.B)  { benchExperiment(b, "sens-segment", "kafka") }
func BenchmarkSensFragmentation(b *testing.B) { benchExperiment(b, "sens-fragmentation", "kafka") }
func BenchmarkSensObjective(b *testing.B)     { benchExperiment(b, "sens-objective", "kafka") }
