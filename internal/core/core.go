// Package core is the simulator facade: it owns the full-system
// configuration (the paper's Table I, plus the Zen4 variant of Fig. 17),
// builds replacement policies by name, and runs the two simulation modes the
// paper's methodology uses — behaviour mode for miss-rate studies and timing
// mode for IPC and power. Everything in cmd/, the examples in this
// package's tests and the benchmark harness goes through this package.
package core

import (
	"context"
	"fmt"

	"uopsim/internal/backend"
	"uopsim/internal/branch"
	"uopsim/internal/cache"
	"uopsim/internal/frontend"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
	"uopsim/internal/power"
	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// Config is the full-system configuration.
type Config struct {
	Name     string
	UopCache uopcache.Config
	L1I      cache.Config
	Branch   branch.Config
	Frontend frontend.Config
	Backend  backend.Config
	Energy   power.EnergyTable
}

// DefaultConfig returns the paper's Table I (AMD Zen3-like) configuration.
func DefaultConfig() Config {
	return Config{
		Name:     "zen3",
		UopCache: uopcache.DefaultConfig(),
		L1I:      cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 1},
		Branch:   branch.DefaultConfig(),
		Frontend: frontend.DefaultConfig(),
		Backend:  backend.DefaultConfig(),
		Energy:   power.DefaultTable(),
	}
}

// Zen4Config returns the larger-frontend configuration of Fig. 17: a bigger
// micro-op cache (6.75K µops on Zen4 ≈ 864 entries; we use 1024 to keep the
// set count a power of two), larger BTB and predictor, wider decode.
func Zen4Config() Config {
	c := DefaultConfig()
	c.Name = "zen4"
	c.UopCache.Entries = 1024
	c.Branch = branch.Zen4Config()
	c.Frontend.UopDeliver = 9
	c.Backend.Width = 8
	c.Backend.ROB = 320
	return c
}

// PolicyNames lists the online policies RunBehaviorByName accepts, in the
// paper's presentation order.
func PolicyNames() []string {
	return []string{"lru", "random", "srrip", "drrip", "ship++", "ghrp", "mockingjay", "thermometer", "furbys"}
}

// OfflineNames lists the offline policy names.
func OfflineNames() []string { return []string{"belady", "foo", "flack"} }

// NewPolicy constructs an online replacement policy by name. Profile-guided
// policies (thermometer, furbys) need a profile; fcfg tunes FURBYS (zero
// value = paper defaults).
func NewPolicy(name string, prof *profiles.Profile, ucCfg uopcache.Config, fcfg policy.FURBYSConfig) (uopcache.Policy, error) {
	switch name {
	case "lru":
		return policy.NewLRU(), nil
	case "random":
		return policy.NewRandom(1), nil
	case "srrip":
		return policy.NewSRRIP(), nil
	case "drrip":
		return policy.NewDRRIP(), nil
	case "ship++":
		return policy.NewSHiPPP(), nil
	case "ghrp":
		return policy.NewGHRP(), nil
	case "mockingjay":
		return policy.NewMockingjay(), nil
	case "thermometer":
		if prof == nil {
			return nil, fmt.Errorf("core: thermometer needs a profile")
		}
		return policy.NewThermometer(prof.ThermoClasses()), nil
	case "furbys":
		if prof == nil {
			return nil, fmt.Errorf("core: furbys needs a profile")
		}
		if fcfg.WeightBits == 0 {
			fcfg = policy.DefaultFURBYSConfig()
		}
		return policy.NewFURBYS(fcfg, prof.Weights(ucCfg, fcfg.WeightBits)), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q", name)
	}
}

// TraceFor generates an application's dynamic block trace and its PW lookup
// sequence (the paper's STEPS 1–2).
func TraceFor(app string, numBlocks, input int) ([]trace.Block, []trace.PW, error) {
	spec, err := workload.Get(app)
	if err != nil {
		return nil, nil, err
	}
	blocks, pws := ProgramTrace(spec.Build(), numBlocks, input)
	return blocks, pws, nil
}

// ProgramTrace is TraceFor over an already built program. It only reads p,
// so the traces of every input can come from one shared program.
func ProgramTrace(p *workload.Program, numBlocks, input int) ([]trace.Block, []trace.PW) {
	blocks := p.Generate(numBlocks, input)
	return blocks, trace.FormPWs(blocks, 0)
}

// Telemetry bundles the optional observability attachments threaded into a
// run: a metrics registry receiving the cache's live uopcache_* and
// policy_<name>_* counters, and a structured event sink receiving the
// cache-decision trace. The zero value disables both.
type Telemetry struct {
	Metrics *telemetry.Registry
	Events  telemetry.EventSink
}

// attach wires the attachments into a cache.
func (t Telemetry) attach(c *uopcache.Cache) {
	if t.Metrics != nil {
		c.AttachMetrics(t.Metrics)
	}
	if t.Events != nil {
		c.SetEventSink(t.Events)
	}
}

// BehaviorOptions tunes a behaviour-mode run.
type BehaviorOptions struct {
	// Ctx, when non-nil, cancels the offline plan solve mid-run; callers
	// that set it must discard the result when Ctx.Err() != nil afterwards
	// (the plan, and hence the replay, is then incomplete). nil = never
	// cancelled. Online policies and replays are serial and run to
	// completion regardless.
	Ctx context.Context
	// WithICache models the inclusive L1i; off = perfect icache.
	WithICache bool
	// RecordPerLookup captures each lookup's outcome (for hotness and
	// profiling analyses).
	RecordPerLookup bool
	// Telemetry attaches observability to the run (zero value = off).
	Telemetry Telemetry
	// Workers bounds the offline plan solver's fan-out when the run goes
	// through the offline machinery (0 = GOMAXPROCS, 1 = serial). Replays
	// and online policies are inherently serial and unaffected.
	Workers int
	// Prepared is the shared columnar view of this lookup sequence (set
	// index, footprint, occurrence index). When it is nil, or was built
	// over another slice or geometry, the run prepares its own (see
	// uopcache.PreparedFor); results are byte-identical either way.
	Prepared *trace.PreparedTrace
	// Plans, when non-nil, caches solved FOO/FLACK keep-plans by content
	// key so warm runs skip the min-cost-flow solve. nil disables caching.
	Plans offline.PlanCache
}

// BehaviorResult is a behaviour-mode run's output.
type BehaviorResult struct {
	Stats     uopcache.Stats
	PerLookup []uopcache.ProbeResult
	// Utilization is the micro-op cache's end-of-run occupancy
	// (uopcache.Cache.Utilization) of an online run; offline runs leave
	// it zero.
	Utilization float64
	// FURBYS carries FURBYS's decision-provenance counters when the
	// policy was FURBYS.
	FURBYS *policy.FURBYSStats
}

// RunBehavior drives a PW lookup sequence through the micro-op cache under
// an online policy.
func RunBehavior(pws []trace.PW, cfg Config, pol uopcache.Policy, opts BehaviorOptions) BehaviorResult {
	c := uopcache.New(cfg.UopCache, pol)
	opts.Telemetry.attach(c)
	var ic *cache.Cache
	if opts.WithICache {
		ic = cache.New(cfg.L1I)
	}
	pt := uopcache.PreparedFor(cfg.UopCache, pws, opts.Prepared)
	b := uopcache.NewBehavior(c, ic, pt)
	var res BehaviorResult
	if opts.RecordPerLookup {
		res.PerLookup = make([]uopcache.ProbeResult, pt.Len())
		for i := range res.PerLookup {
			res.PerLookup[i] = b.Access(i)
		}
		b.Flush()
		res.Stats = c.Stats
	} else {
		res.Stats = b.Run()
	}
	res.Utilization = c.Utilization()
	if f, ok := pol.(*policy.FURBYS); ok {
		st := f.Stats
		res.FURBYS = &st
	}
	return res
}

// RunBehaviorByName builds the named policy (collecting a FLACK profile for
// the profile-guided ones from the same trace) and runs behaviour mode.
// Offline names (belady/foo/flack) run the offline machinery. The profile
// and the replay share one prepared trace.
func RunBehaviorByName(name string, pws []trace.PW, cfg Config, opts BehaviorOptions) (BehaviorResult, error) {
	opts.Prepared = uopcache.PreparedFor(cfg.UopCache, pws, opts.Prepared)
	switch name {
	case "belady":
		r := offline.RunBelady(pws, cfg.UopCache, offlineOptions(cfg, opts))
		return BehaviorResult{Stats: r.Stats, PerLookup: r.PerLookup}, nil
	case "foo":
		r := offline.RunFOO(pws, cfg.UopCache, offlineOptions(cfg, opts))
		return BehaviorResult{Stats: r.Stats, PerLookup: r.PerLookup}, nil
	case "flack":
		r := offline.RunFLACK(pws, cfg.UopCache, offlineOptions(cfg, opts))
		return BehaviorResult{Stats: r.Stats, PerLookup: r.PerLookup}, nil
	}
	var prof *profiles.Profile
	if name == "thermometer" || name == "furbys" {
		prof = profiles.CollectWith(pws, cfg.UopCache, profiles.SourceFLACK, profiles.CollectOptions{
			Prepared: opts.Prepared, Plans: opts.Plans, Workers: opts.Workers,
		})
	}
	pol, err := NewPolicy(name, prof, cfg.UopCache, policy.FURBYSConfig{})
	if err != nil {
		return BehaviorResult{}, err
	}
	return RunBehavior(pws, cfg, pol, opts), nil
}

func offlineOptions(cfg Config, opts BehaviorOptions) offline.Options {
	o := offline.Options{
		Ctx:             opts.Ctx,
		RecordPerLookup: opts.RecordPerLookup,
		Metrics:         opts.Telemetry.Metrics,
		Events:          opts.Telemetry.Events,
		Workers:         opts.Workers,
		Prepared:        opts.Prepared,
		Plans:           opts.Plans,
	}
	if opts.WithICache {
		ic := cfg.L1I
		o.ICache = &ic
	}
	return o
}

// TimingResult bundles a timing run with its power breakdown.
type TimingResult struct {
	Frontend frontend.Result
	Power    power.Breakdown
	PPW      float64
}

// RunTiming drives a dynamic block trace and its PW sequence through the
// full timing model under the given replacement policy and prices it with
// the energy table. pws must be trace.FormPWs(blocks, 0), the sequence
// TraceFor returns; nil pws means "form them". Offline plan policies follow
// the cache's lookup clock, so their plans stay aligned with the PW stream.
// The cache's uopcache_* counters and decision events stream into tel
// during the run, and the frontend_* aggregates are published at the end
// (zero tel = off).
func RunTiming(blocks []trace.Block, pws []trace.PW, cfg Config, pol uopcache.Policy, tel Telemetry) TimingResult {
	return runTiming(blocks, pws, cfg, pol, tel, nil)
}

// runTiming is RunTiming over a prebuilt path: when path is nil, or was not
// built over these slices with cfg's predictor and backend
// (frontend.Path.For), it builds its own, so results are byte-identical
// either way.
func runTiming(blocks []trace.Block, pws []trace.PW, cfg Config, pol uopcache.Policy, tel Telemetry, path *frontend.Path) TimingResult {
	if pws == nil {
		pws = trace.FormPWs(blocks, 0)
	}
	if !path.For(blocks, pws, cfg.Branch, cfg.Backend) {
		path = frontend.NewPath(blocks, pws, cfg.Branch, cfg.Backend)
	}
	uc := uopcache.New(cfg.UopCache, pol)
	tel.attach(uc)
	var l1i *cache.Cache
	if !cfg.Frontend.PerfectICache {
		l1i = cache.New(cfg.L1I)
	}
	res := frontend.New(cfg.Frontend, uc, l1i).Run(path)
	if tel.Metrics != nil {
		res.PublishMetrics(tel.Metrics)
	}
	pb := power.Compute(res, cfg.Energy)
	return TimingResult{Frontend: res, Power: pb, PPW: power.PPW(res, pb)}
}

// RunTimingByName builds the named policy — online or offline — and runs
// the timing model. Profile-guided policies collect a FLACK profile from the
// same trace when prof is nil.
func RunTimingByName(name string, blocks []trace.Block, pws []trace.PW, cfg Config, prof *profiles.Profile) (TimingResult, error) {
	return RunTimingByNameWith(name, blocks, pws, cfg, prof, TimingOptions{})
}

// TimingOptions bundles a by-name timing run's optional attachments:
// observability plus the shared prepared trace and keep-plan cache consumed
// by the offline schedule policies and profile collection (nil Prepared =
// build one when needed; nil Plans = no plan caching).
type TimingOptions struct {
	Telemetry Telemetry
	Prepared  *trace.PreparedTrace
	Plans     offline.PlanCache
	// Workers bounds the offline plan solver's fan-out (0 = GOMAXPROCS).
	Workers int
	// Path is the trace's shared policy-independent timing path
	// (frontend.NewPath over the run's blocks and windows with cfg.Branch
	// and cfg.Backend). When it is nil, or was built over other slices or
	// configs, the run builds its own; results are byte-identical either
	// way.
	Path *frontend.Path
}

// RunTimingByNameWith is RunTimingByName with the full attachment set.
func RunTimingByNameWith(name string, blocks []trace.Block, pws []trace.PW, cfg Config, prof *profiles.Profile, opts TimingOptions) (TimingResult, error) {
	oo := offline.Options{Workers: opts.Workers, Prepared: opts.Prepared, Plans: opts.Plans}
	var pol uopcache.Policy
	switch name {
	case "belady":
		pol = offline.NewBeladySchedule(pws, cfg.UopCache, oo)
	case "foo":
		pol = offline.NewFLACKSchedule(pws, cfg.UopCache, oo)
	case "flack":
		oo.Features = offline.FLACKFeatures()
		pol = offline.NewFLACKSchedule(pws, cfg.UopCache, oo)
	default:
		if name == "thermometer" || name == "furbys" {
			if prof == nil {
				prof = profiles.CollectWith(pws, cfg.UopCache, profiles.SourceFLACK, profiles.CollectOptions{
					Prepared: opts.Prepared, Plans: opts.Plans, Workers: opts.Workers,
				})
			}
		}
		p, err := NewPolicy(name, prof, cfg.UopCache, policy.FURBYSConfig{})
		if err != nil {
			return TimingResult{}, err
		}
		pol = p
	}
	return runTiming(blocks, pws, cfg, pol, opts.Telemetry, opts.Path), nil
}

// MissReduction is the paper's headline metric: the relative reduction in
// micro-op-level misses versus a baseline (positive = better).
func MissReduction(baseline, other uopcache.Stats) float64 {
	if baseline.UopsMissed == 0 {
		return 0
	}
	return (float64(baseline.UopsMissed) - float64(other.UopsMissed)) / float64(baseline.UopsMissed)
}
