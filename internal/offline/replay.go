package offline

import (
	"context"

	"uopsim/internal/cache"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// Features toggles FLACK's three extensions over raw FOO, matching the
// paper's Fig. 10 ablation: raw FOO is the zero value; FLACK is all three.
type Features struct {
	// Async enables lazy eviction and late-insertion safeguarding: a
	// window the plan stops keeping stays resident until replacement
	// pressure needs its entries, and in-flight insertions of unkept
	// windows are bypassed on arrival instead of being cancelled at
	// lookup time.
	Async bool
	// VarCost switches the flow objective from OHR to the micro-op cost
	// metric (cost/size per entry).
	VarCost bool
	// SelBypass folds overlapping same-start windows into one object
	// (partial hits count as uses, the larger variant is kept) and
	// throttles bypassing: unkept windows may still be inserted when the
	// set has free space, increasing the chance of future partial hits.
	SelBypass bool
}

// FLACKFeatures returns the full FLACK feature set.
func FLACKFeatures() Features { return Features{Async: true, VarCost: true, SelBypass: true} }

// Label names the feature combination the way the paper's Fig. 10 does.
func (f Features) Label() string {
	switch f {
	case Features{}:
		return "foo"
	case Features{Async: true}:
		return "foo+A"
	case Features{Async: true, VarCost: true}:
		return "foo+A+VC"
	case FLACKFeatures():
		return "flack"
	}
	s := "foo"
	if f.Async {
		s += "+A"
	}
	if f.VarCost {
		s += "+VC"
	}
	if f.SelBypass {
		s += "+SB"
	}
	return s
}

// Result bundles replay statistics with the per-lookup outcomes FURBYS's
// profiling pipeline consumes.
type Result struct {
	Stats uopcache.Stats
	// PerLookup records each lookup's outcome in trace order.
	PerLookup []uopcache.ProbeResult
}

// Options configures an offline replay run.
type Options struct {
	// Ctx, when non-nil, cancels the plan solve: a cancelled context makes
	// ComputeDecisions return early with an incomplete plan, so callers
	// that set Ctx must discard the Result when Ctx.Err() != nil after the
	// run. nil means never cancelled.
	Ctx context.Context
	// Features selects the FLACK extensions (zero = raw FOO).
	Features Features
	// SegmentLimit bounds per-set flow instances (0 = default).
	SegmentLimit int
	// ICache, when non-nil, is the inclusive L1i configuration; nil
	// models a perfect icache (the paper evaluates the offline family
	// under perfect L1i to isolate replacement effects).
	ICache *cache.Config
	// RecordPerLookup enables Result.PerLookup.
	RecordPerLookup bool
	// Workers bounds the plan solver's parallelism (0 = GOMAXPROCS,
	// 1 = serial). Only ComputeDecisions fans out; the replay itself is
	// inherently serial (see replayDecisions).
	Workers int
	// Metrics, when non-nil, receives the live uopcache_* counters of
	// the replay; Events, when non-nil, receives the structured decision
	// trace. Both are optional observability attachments.
	Metrics *telemetry.Registry
	Events  telemetry.EventSink
	// Prepared is the shared columnar view of the pws slice (set index,
	// footprint, occurrence index). When it is nil, or was built over
	// another slice or geometry, the run prepares its own (see
	// uopcache.PreparedFor); results are byte-identical either way.
	Prepared *trace.PreparedTrace
	// Plans, when non-nil, caches solved keep-plans by content key: a hit
	// skips the min-cost-flow solve entirely, a miss stores the fresh
	// plan for future runs. nil disables plan caching.
	Plans PlanCache
}

// model returns the flow objective the features select.
func (o Options) model() CostModel {
	if o.Features.VarCost {
		return CostVC
	}
	return CostOHR
}

// newBehavior builds the replay's cache under pol, bound to pt, and wires
// in the optional L1i and observability attachments.
func (o Options) newBehavior(pt *trace.PreparedTrace, cfg uopcache.Config, pol uopcache.Policy) *uopcache.Behavior {
	c := uopcache.New(cfg, pol)
	if o.Metrics != nil {
		c.AttachMetrics(o.Metrics)
	}
	if o.Events != nil {
		c.SetEventSink(o.Events)
	}
	var ic *cache.Cache
	if o.ICache != nil {
		ic = cache.New(*o.ICache)
	}
	return uopcache.NewBehavior(c, ic, pt)
}

// RunFOO replays the lookup sequence under a FOO/FLACK plan with the given
// feature set and returns the measured statistics. This is the paper's
// STEP(3): the offline behaviour simulator producing hit/miss decisions.
func RunFOO(pws []trace.PW, cfg uopcache.Config, opts Options) Result {
	pt := uopcache.PreparedFor(cfg, pws, opts.Prepared)
	dec := computePlan(opts.Ctx, pt, cfg, opts.model(), opts.Features.SelBypass, opts.SegmentLimit, opts.Workers, opts.Plans)
	return replayDecisions(pt, cfg, dec, opts)
}

// ReplayPlan drives the behaviour simulator under an externally computed
// plan — used by objective-comparison studies that want to vary the flow
// objective independently of the replay features.
func ReplayPlan(pws []trace.PW, cfg uopcache.Config, dec *Decisions, opts Options) Result {
	return replayDecisions(uopcache.PreparedFor(cfg, pws, opts.Prepared), cfg, dec, opts)
}

// replayDecisions drives the behaviour simulator under a plan (nil dec =
// Belady).
//
// Unlike the solve, the replay does NOT decompose per set: the behaviour
// simulator's asynchronous-insertion due times count GLOBAL lookups (an
// insertion issued in one set matures after accesses to other sets), and
// the inclusive L1i couples sets through line evictions. Splitting the
// replay per set would change those interleavings and therefore the
// results, so parallel speedup for replays comes from running independent
// (experiment, app) cells concurrently at the harness layer instead.
func replayDecisions(pt *trace.PreparedTrace, cfg uopcache.Config, dec *Decisions, opts Options) Result {
	var keep []bool
	name := "belady"
	if dec != nil {
		keep, name = dec.Keep, opts.Features.Label()
	}
	b := opts.newBehavior(pt, cfg, newPlanPolicy(pt, keep, name))
	c := b.C
	var res Result
	if opts.RecordPerLookup {
		res.PerLookup = make([]uopcache.ProbeResult, 0, pt.Len())
	}
	for i, n := 0, pt.Len(); i < n; i++ {
		r := b.Access(i)
		if opts.RecordPerLookup {
			res.PerLookup = append(res.PerLookup, r)
		}
		if keep != nil && !keep[i] {
			start := pt.At(i).Start
			if !opts.Features.Async {
				// Raw FOO applies its decision at lookup time:
				// evict the resident now and cancel the pending
				// insertion, oblivious to asynchrony.
				c.EvictKey(start)
				c.CancelInFlight(start)
			} else if !opts.Features.SelBypass {
				// A without SB: late insertions of unkept
				// windows are bypassed on arrival (the queue
				// safeguard), and residents linger until
				// pressure (lazy eviction via the policy).
				c.CancelInFlight(start)
			}
			// With SelBypass the window may still be inserted when
			// space allows; the policy bypasses it under pressure.
		}
	}
	b.Flush()
	res.Stats = c.Stats
	return res
}

// RunBelady replays the lookup sequence under Belady's algorithm.
func RunBelady(pws []trace.PW, cfg uopcache.Config, opts Options) Result {
	return replayDecisions(uopcache.PreparedFor(cfg, pws, opts.Prepared), cfg, nil, opts)
}

// RunFLACK replays under the full FLACK policy (all features).
func RunFLACK(pws []trace.PW, cfg uopcache.Config, opts Options) Result {
	opts.Features = FLACKFeatures()
	return RunFOO(pws, cfg, opts)
}
