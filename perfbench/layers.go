package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"uopsim/internal/artifact"
	"uopsim/internal/core"
	"uopsim/internal/experiments"
	"uopsim/internal/flow"
	"uopsim/internal/inspect"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// tracer records a span around every public layer call the benchmark makes
// and sums each span name's busy time. Spans stay in memory and are written
// once, at the end, as Chrome trace-event JSON. A nil tracer only runs the
// call, so untraced passes share the traced code path.
type tracer struct {
	log  *inspect.SpanLog
	busy map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{log: inspect.NewSpanLog(), busy: map[string]time.Duration{}}
}

// do runs fn inside a span named name whose parent span is parent.
func (t *tracer) do(name, parent string, fn func()) {
	if t == nil {
		fn()
		return
	}
	sp := t.log.Begin("perfbench", name).Arg("parent", parent)
	start := time.Now()
	fn()
	t.busy[name] += time.Since(start)
	sp.End()
}

// spans is the span log handed to experiments.Context (nil when untraced).
func (t *tracer) spans() *inspect.SpanLog {
	if t == nil {
		return nil
	}
	return t.log
}

func (t *tracer) ns(name string) float64 { return float64(t.busy[name].Nanoseconds()) }

// metricName turns a policy name into a metric-name component: metric names
// are [A-Za-z0-9_.-]+, so "ship++" becomes "shippp".
func metricName(policy string) string { return strings.ReplaceAll(policy, "+", "p") }

// mallocs returns the heap objects allocated so far.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// layerMetric describes one per-layer metric: its unit, which direction is
// better, and the end-to-end metric and workload it should move. The
// simulated guards have a direction only because BENCHMARK.json needs one.
type layerMetric struct {
	name, unit, better, moves string
}

// layerMetrics lists every per-layer metric in pipeline order.
func layerMetrics() []layerMetric {
	const (
		campaignP50   = "pass_p50_ms·campaign"
		replayP50     = "pass_p50_ms,sim_minst_per_s,allocs_per_pass·replay"
		timingP50     = "pass_p50_ms,sim_minst_per_s,allocs_per_pass·timing; pass_p50_ms·campaign"
		simGuard      = "none: simulated, must not move under a perf change"
		solveMoves    = "pass_p50_ms,allocs_per_pass·campaign; setup_s·replay"
		formMoves     = "pass_p50_ms,allocs_per_pass·campaign; setup_s·replay"
		artifactMoves = "pass_p50_ms·replay; setup_s·replay (puts)"
	)
	ms := []layerMetric{
		{"workload.gen_ns_per_block", "ns", "lower", "pass_p50_ms·campaign; setup_s·replay,timing"},
		{"trace.form_ns_per_pw", "ns", "lower", formMoves},
		{"trace.form_allocs_per_pw", "count", "lower", formMoves},
		{"trace.prepare_ns_per_pw", "ns", "lower", formMoves},
	}
	for _, p := range core.PolicyNames() {
		ms = append(ms, layerMetric{"uopcache.ns_per_lookup." + metricName(p), "ns", "lower", replayP50})
	}
	ms = append(ms,
		layerMetric{"uopcache.allocs_per_lookup", "count", "lower", replayP50},
		layerMetric{"uopcache.lookups", "count", "higher", simGuard},
		layerMetric{"uopcache.uop_hit_ratio", "ratio", "higher", simGuard},
		layerMetric{"profiles.collect_ms_per_app", "ms", "lower", campaignP50},
		layerMetric{"offline.solve_ns_per_lookup.foo", "ns", "lower", solveMoves},
		layerMetric{"offline.solve_ns_per_lookup.flack", "ns", "lower", solveMoves},
		layerMetric{"flow.solver_reuse", "count", "higher", solveMoves},
		layerMetric{"flow.solver_fresh", "count", "lower", solveMoves},
	)
	for _, p := range core.OfflineNames() {
		ms = append(ms, layerMetric{"offline.replay_ns_per_lookup." + p, "ns", "lower", "pass_p50_ms·replay"})
	}
	ms = append(ms,
		layerMetric{"artifact.plan_get_ms", "ms", "lower", artifactMoves},
		layerMetric{"artifact.plan_hits", "count", "higher", artifactMoves},
		layerMetric{"artifact.plan_misses", "count", "lower", artifactMoves},
		layerMetric{"artifact.plan_hit_ratio", "ratio", "higher", artifactMoves},
	)
	for _, p := range timingPolicies {
		ms = append(ms, layerMetric{"frontend.ns_per_inst." + p, "ns", "lower", timingP50})
	}
	ms = append(ms, layerMetric{"frontend.allocs_per_inst", "count", "lower", timingP50})
	for _, p := range timingPolicies {
		ms = append(ms, layerMetric{"frontend.ipc." + p, "ipc", "higher", simGuard})
	}
	for _, id := range campaignIDs {
		ms = append(ms, layerMetric{"experiments.wall_s." + id, "s", "lower", campaignP50})
	}
	ms = append(ms,
		layerMetric{"experiments.cells", "count", "lower", campaignP50},
		layerMetric{"tracing.overhead_ms", "ms", "lower", "none: traced minus untraced pass_p50_ms of this workload"},
	)
	return ms
}

// probe times every layer's public call once over the seeded apps at the
// replay input size (and the campaign at its own size), recording a span
// around each call. It returns every per-layer metric but the tracing
// overhead, which the caller measures.
func probe(seed int64, dir string, t *tracer) (map[string]metric, error) {
	cfg := core.DefaultConfig()
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	// workload → trace: generation, PW formation, preparation. Formation
	// runs once more outside the spans to count its allocations alone.
	apps, err := genApps(seed, replayBlocks, t)
	if err != nil {
		return nil, err
	}
	var nBlocks, nPWs, nInst uint64
	for _, a := range apps {
		t.do("uopcache.Prepare", "probe", func() { a.pt = uopcache.Prepare(cfg.UopCache, a.pws) })
		nBlocks += uint64(len(a.blocks))
		nPWs += uint64(len(a.pws))
		nInst += a.inst
	}
	m0 := mallocs()
	for _, a := range apps {
		trace.FormPWs(a.blocks, 0)
	}
	formAllocs := mallocs() - m0
	put("workload.gen_ns_per_block", "ns", t.ns("workload.GenerateSpec")/float64(nBlocks))
	put("trace.form_ns_per_pw", "ns", t.ns("trace.FormPWs")/float64(nPWs))
	put("trace.form_allocs_per_pw", "count", float64(formAllocs)/float64(nPWs))
	put("trace.prepare_ns_per_pw", "ns", t.ns("uopcache.Prepare")/float64(nPWs))

	// profiles: one FLACK profile per app, solved from scratch.
	for _, a := range apps {
		t.do("profiles.CollectWith", "probe", func() {
			a.prof = profiles.CollectWith(a.pws, cfg.UopCache, profiles.SourceFLACK, profiles.CollectOptions{Prepared: a.pt, Workers: 1})
		})
	}
	put("profiles.collect_ms_per_app", "ms", t.ns("profiles.CollectWith")/1e6/float64(len(apps)))

	// offline + flow: the FOO and FLACK plan solves.
	type plan struct {
		app   *appTrace
		model offline.CostModel
		fold  bool
		feats offline.Features
		name  string
		dec   *offline.Decisions
	}
	var plans []*plan
	reuse0, fresh0 := flow.SolverReuseStats()
	for _, a := range apps {
		for _, p := range []*plan{
			{app: a, model: offline.CostOHR, name: "foo"},
			{app: a, model: offline.CostVC, fold: true, feats: offline.FLACKFeatures(), name: "flack"},
		} {
			t.do("offline.ComputeDecisionsPrepared."+p.name, "probe", func() {
				p.dec = offline.ComputeDecisionsPrepared(context.Background(), a.pt, cfg.UopCache, p.model, p.fold, 0, 1)
			})
			plans = append(plans, p)
		}
	}
	reuse1, fresh1 := flow.SolverReuseStats()
	for _, name := range []string{"foo", "flack"} {
		put("offline.solve_ns_per_lookup."+name, "ns", t.ns("offline.ComputeDecisionsPrepared."+name)/float64(nPWs))
	}
	put("flow.solver_reuse", "count", float64(reuse1-reuse0))
	put("flow.solver_fresh", "count", float64(fresh1-fresh0))

	// artifact: write every plan to a fresh store, then read each back.
	storeDir, err := os.MkdirTemp(dir, "probe-plans-")
	if err != nil {
		return nil, err
	}
	store, err := artifact.Open(storeDir)
	if err != nil {
		return nil, err
	}
	cache := offline.NewPlanStore(store)
	keys := make([]string, len(plans))
	for i, p := range plans {
		keys[i] = offline.PlanKey(p.app.pws, cfg.UopCache, p.model, p.fold, 0)
		t.do("artifact.plan_put", "probe", func() { cache.Store(keys[i], p.dec) })
	}
	for i, p := range plans {
		var got *offline.Decisions
		var ok bool
		t.do("artifact.plan_get", "probe", func() { got, ok = cache.Load(keys[i]) })
		if !ok || !sameKeep(got, p.dec) {
			return nil, fmt.Errorf("plan store returned a different %s plan for %s", p.name, p.app.name)
		}
	}
	ps := store.Stats()["plan"]
	put("artifact.plan_get_ms", "ms", t.ns("artifact.plan_get")/1e6/float64(len(plans)))
	put("artifact.plan_hits", "count", float64(ps.Hits))
	put("artifact.plan_misses", "count", float64(ps.Misses))
	put("artifact.plan_hit_ratio", "ratio", float64(ps.Hits)/float64(ps.Hits+ps.Misses))

	// offline replay: Belady from the oracle, FOO and FLACK from the plans.
	for _, p := range plans {
		if p.name == "foo" {
			if err := replayLayer(t, "belady", func() offline.Result {
				return offline.RunBelady(p.app.pws, cfg.UopCache, offline.Options{Prepared: p.app.pt, Workers: 1})
			}); err != nil {
				return nil, err
			}
		}
		if err := replayLayer(t, p.name, func() offline.Result {
			return offline.ReplayPlan(p.app.pws, cfg.UopCache, p.dec, offline.Options{Features: p.feats, Prepared: p.app.pt, Workers: 1})
		}); err != nil {
			return nil, err
		}
	}
	for _, name := range core.OfflineNames() {
		put("offline.replay_ns_per_lookup."+name, "ns", t.ns("offline.replay."+name)/float64(nPWs))
	}

	// uopcache + policy: every online policy over every app.
	var lookups, uopsHit, uopsReq uint64
	m0 = mallocs()
	for _, name := range core.PolicyNames() {
		span := "core.RunBehavior." + metricName(name)
		for _, a := range apps {
			pol, err := core.NewPolicy(name, a.prof, cfg.UopCache, policy.FURBYSConfig{})
			if err != nil {
				return nil, err
			}
			var res core.BehaviorResult
			t.do(span, "probe", func() {
				res = core.RunBehavior(a.pws, cfg, pol, core.BehaviorOptions{Prepared: a.pt, Workers: 1})
			})
			if err := checkStats(res.Stats); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", a.name, name, err)
			}
			lookups += res.Stats.Lookups
			uopsHit += res.Stats.UopsHit
			uopsReq += res.Stats.UopsRequested
		}
		put("uopcache.ns_per_lookup."+metricName(name), "ns", t.ns(span)/float64(nPWs))
	}
	put("uopcache.allocs_per_lookup", "count", float64(mallocs()-m0)/float64(lookups))
	put("uopcache.lookups", "count", float64(lookups))
	put("uopcache.uop_hit_ratio", "ratio", float64(uopsHit)/float64(uopsReq))

	// frontend: the timing model under lru and furbys.
	m0 = mallocs()
	for _, name := range timingPolicies {
		span := "core.RunTimingByNameWith." + name
		var inst, cycles uint64
		for _, a := range apps {
			var res core.TimingResult
			var err error
			t.do(span, "probe", func() {
				res, err = core.RunTimingByNameWith(name, a.blocks, a.pws, cfg, a.prof, core.TimingOptions{Workers: 1})
			})
			if err != nil {
				return nil, err
			}
			if err := checkStats(res.Frontend.UopCache); err != nil {
				return nil, fmt.Errorf("%s/%s timing: %w", a.name, name, err)
			}
			inst += res.Frontend.Instructions
			cycles += res.Frontend.Cycles
		}
		put("frontend.ns_per_inst."+name, "ns", t.ns(span)/float64(inst))
		put("frontend.ipc."+name, "ipc", float64(inst)/float64(cycles))
	}
	put("frontend.allocs_per_inst", "count", float64(mallocs()-m0)/float64(nInst*uint64(len(timingPolicies))))

	// experiments: one traced campaign pass.
	res, err := runCampaign(t, func() {})
	if err != nil {
		return nil, err
	}
	cells := 0
	for _, r := range res {
		put("experiments.wall_s."+r.ID, "s", r.WallSeconds)
		cells += len(r.Apps)
	}
	put("experiments.cells", "count", float64(cells))
	return out, nil
}

// replayLayer times one offline replay and checks its Stats.
func replayLayer(t *tracer, name string, fn func() offline.Result) error {
	var r offline.Result
	t.do("offline.replay."+name, "probe", func() { r = fn() })
	if err := checkStats(r.Stats); err != nil {
		return fmt.Errorf("%s replay: %w", name, err)
	}
	return nil
}

func sameKeep(a, b *offline.Decisions) bool {
	if len(a.Keep) != len(b.Keep) {
		return false
	}
	for i := range a.Keep {
		if a.Keep[i] != b.Keep[i] {
			return false
		}
	}
	return true
}

// campaignSimInst counts the instructions the campaign simulates: an
// untimed pass with a telemetry registry attached counts every micro-op
// cache lookup of every simulation, and the campaign traces' mean
// instructions per PW converts lookups into instructions.
func campaignSimInst() (uint64, error) {
	ctx := experiments.NewContext(campaignBlocks)
	ctx.Workers = 1
	reg := telemetry.NewRegistry()
	ctx.Telemetry = core.Telemetry{Metrics: reg}
	for _, r := range experiments.RunMany(ctx, campaignIDs, nil) {
		if r.Err != nil {
			return 0, fmt.Errorf("%s: %w", r.ID, r.Err)
		}
	}
	var inst, pws uint64
	for _, app := range workload.Names() {
		blocks, p, err := core.TraceFor(app, campaignBlocks, 0)
		if err != nil {
			return 0, err
		}
		for _, b := range blocks {
			inst += uint64(b.NumInst)
		}
		pws += uint64(len(p))
	}
	return reg.Counter("uopcache_lookups_total").Value() * inst / pws, nil
}

// printLayers prints the per-layer table with the end-to-end metric each
// layer should move.
func printLayers(w io.Writer, o options, m map[string]metric, p50, tracedP50 float64, n, nTraced int) {
	fmt.Fprintf(w, "workload %s  seed %d  traced run\n", o.workload, o.seed)
	fmt.Fprintf(w, "  pass_p50_ms untraced %.3f (%d passes)  traced %.3f (%d passes)  overhead %.3f ms\n",
		p50, n, tracedP50, nTraced, tracedP50-p50)
	fmt.Fprintf(w, "  %-38s %16s %-6s %s\n", "per-layer metric", "value", "unit", "moves")
	for _, lm := range layerMetrics() {
		v, ok := m[lm.name]
		if !ok {
			fmt.Fprintf(w, "  %-38s %16s %-6s %s\n", lm.name, "MISSING", lm.unit, lm.moves)
			continue
		}
		fmt.Fprintf(w, "  %-38s %16.4f %-6s %s\n", lm.name, v.Value, v.Unit, lm.moves)
	}
}
