// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a named function producing a Table; the
// registry drives cmd/experiments and the root benchmark harness. A Context
// caches each app's static program, generated traces, collected profiles,
// and behaviour and timing runs behind per-key singleflight so multi-figure
// runs — serial or parallel — do not repeat the expensive FLACK profiling
// step or an identical replay or frontend simulation, and it memoizes every
// solved FOO/FLACK keep-plan so figures that share a plan solve it once.
// A training input (fig18's inputs 1 and 2) feeds only its profile: its
// trace and prepared trace live inside that profile's collection.
//
// Concurrency model: RunMany fans experiments out, and each experiment
// splits into heavy cells (one per app, config point, or policy variant)
// that run under a shared worker budget (Context.Workers). Cell results are
// typed row groups merged in registry/app order, so rendered output is
// byte-identical at any worker count; -parallel 1 reproduces the serial
// schedule. All goroutines live in internal/parallel — simlint forbids raw
// `go` statements in this package.
//
// Resilience model: every cell is a deterministic function of its inputs,
// so a cell that errors or panics fails its experiment — there is no retry
// and no partial table. A panic is contained to its cell and becomes the
// cell's error, with the stack kept in the experiment's failed-cell log.
// Context.Ctx cancels a campaign cooperatively (cells in flight finish,
// queued cells are abandoned). An interrupted campaign is rerun; with
// Context.Artifacts set, the rerun skips every keep-plan already solved.
package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uopsim/internal/artifact"
	"uopsim/internal/core"
	"uopsim/internal/frontend"
	"uopsim/internal/inspect"
	"uopsim/internal/offline"
	"uopsim/internal/parallel"
	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// Context carries shared configuration, result caches and the worker
// budget. Derived views share the scheduler, so the budget and manifest
// records stay global: scoped shares every cache, and withConfig the
// config-independent ones.
type Context struct {
	// Cfg is the system configuration (DefaultConfig unless overridden).
	Cfg core.Config
	// Blocks is the dynamic block count per trace.
	Blocks int
	// Apps restricts the application list (nil = all 11).
	Apps []string
	// Telemetry is attached to every simulation the experiments launch
	// (zero value = off).
	Telemetry core.Telemetry
	// Progress, when non-nil, receives one status line per completed
	// (experiment, app) cell.
	Progress *telemetry.Progress
	// Workers bounds how many heavy cells run concurrently across ALL
	// experiments sharing this context (0 = GOMAXPROCS, 1 = serial). The
	// same budget is handed to the offline solver.
	Workers int
	// Artifacts, when non-nil, is the content-addressed on-disk cache for
	// solved FOO/FLACK keep-plans (-cache-dir). A warm store skips every
	// min-cost-flow solve; results are byte-identical with the store
	// cold, warm, or absent.
	Artifacts *artifact.Store

	// Ctx cancels the campaign cooperatively: cells already executing run
	// to completion, queued cells are abandoned, and RunMany reports
	// Ctx.Err() for every experiment that did not finish. nil = never
	// cancelled.
	Ctx context.Context
	// Spans, when non-nil, records experiment/cell/singleflight wall-clock
	// spans for the Chrome-trace export (-trace-out). A nil log is inert,
	// so the harness threads it unconditionally.
	Spans *inspect.SpanLog

	// id scopes progress lines and timing records to one experiment.
	id     string
	caches *ctxCaches
	sched  *ctxSched
}

// ctx normalizes the context's cancellation handle (nil = never cancelled).
func (c *Context) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background() //simlint:ignore ctxflow the documented nil-means-never-cancelled normalization seam for Context.Ctx
}

// ctxCaches holds the per-geometry singleflight result caches and the
// keep-plan memo. The mutex only guards map access; computations run with it
// released, and concurrent callers of the same key block on the flight's
// done channel. behaviors and times are the behaviour and timing memos
// (Context.behavior, Context.timing): their keys carry the full
// core.Config, not just the geometry, and a hit streams no uopcache_*
// events for its cell. paths holds the timing runs' shared per-trace paths
// (Context.timingPath). programs holds each app's static program
// (Context.program), which every trace of the app is generated from. The
// plan memo has no flights (see memoPlans). A context derived for another
// config shares some of the maps (forConfig), and with them mu.
type ctxCaches struct {
	mu        *sync.Mutex
	programs  map[programKey]*flight[*workload.Program]
	traces    map[string]*flight[tracePair]
	preps     map[string]*flight[*trace.PreparedTrace]
	profs     map[string]*flight[*profiles.Profile]
	behaviors map[runKey]*flight[core.BehaviorResult]
	times     map[runKey]*flight[core.TimingResult]
	paths     map[pathKey]*flight[*frontend.Path]
	plans     map[string]*offline.Decisions
}

// ctxSched is the cross-experiment scheduler state: the shared cell limiter,
// the per-experiment timing records feeding the run manifest, the
// per-experiment failed-cell log, and the per-experiment sweep sequence
// numbers that order it.
type ctxSched struct {
	mu      sync.Mutex
	cells   *parallel.Limiter
	timings map[string][]telemetry.AppRun
	// failures logs cells that errored or panicked, tagged with
	// (sweep, index) so the log sorts deterministically regardless of
	// completion order.
	failures map[string][]cellFailureRec
	// seqs numbers each experiment's cell sweeps in call order, and seq
	// orders the failed-cell log. Sweeps within one experiment run
	// serially (cell bodies may not nest), so the numbering, and with it
	// the log order, is the same at any worker count.
	seqs map[string]int
	// status is the live campaign state the /debug/status dashboard polls.
	status statusCounters
	// memo tallies the memos' traffic for Context.MemoTraffic.
	memo struct{ programs, plans, behaviors, runs, paths memoTally }
}

// memoTally counts one memo's requests whether or not metrics are attached.
type memoTally struct{ hits, misses atomic.Uint64 }

// note counts one request that computed (a miss) or did not (a hit); a nil
// tally counts nothing.
func (m *memoTally) note(computed bool) {
	switch {
	case m == nil:
	case computed:
		m.misses.Add(1)
	default:
		m.hits.Add(1)
	}
}

func (m *memoTally) traffic() telemetry.MemoTraffic {
	return telemetry.MemoTraffic{Hits: m.hits.Load(), Misses: m.misses.Load()}
}

// MemoTraffic returns the requests the context's memos have served so far,
// for the run manifest: static programs, keep-plans (as plan_memo_*),
// behaviour runs (as behavior_memo_*), timing runs (as timing_memo_*) and
// timing paths (as timing_path_memo_*). Contexts derived for another config,
// such as fig17's, count into the same tallies.
func (c *Context) MemoTraffic() map[string]telemetry.MemoTraffic {
	m := &c.sched.memo
	return map[string]telemetry.MemoTraffic{
		"programs":      m.programs.traffic(),
		"plans":         m.plans.traffic(),
		"behavior_runs": m.behaviors.traffic(),
		"timing_runs":   m.runs.traffic(),
		"timing_paths":  m.paths.traffic(),
	}
}

// statusCounters is the mutable part of a StatusSnapshot (guarded by
// ctxSched.mu).
type statusCounters struct {
	expTotal, expDone      int
	running                map[string]bool
	cellsDone, cellsFailed int
	attribution            *AttributionStatus
}

// AttributionStatus is the attribution roll-up shown on the live dashboard
// while (and after) RunAttribution executes.
type AttributionStatus struct {
	Evictions uint64 `json:"evictions"`
	Justified uint64 `json:"justified"`
	Premature uint64 `json:"premature"`
	Divergent uint64 `json:"divergent"`
}

// StatusSnapshot is the live run-status document served at /debug/status.
type StatusSnapshot struct {
	ExperimentsTotal int      `json:"experiments_total"`
	ExperimentsDone  int      `json:"experiments_done"`
	Running          []string `json:"running,omitempty"`
	CellsDone        int      `json:"cells_done"`
	CellsFailed      int      `json:"cells_failed"`
	// WorkersActive and QueueDepth mirror the shared cell limiter.
	WorkersActive int `json:"workers_active"`
	WorkersCap    int `json:"workers_cap"`
	QueueDepth    int `json:"queue_depth"`
	// Attribution appears once RunAttribution has classified evictions.
	Attribution *AttributionStatus `json:"attribution,omitempty"`
}

// StatusSnapshot assembles the current campaign state; safe for concurrent
// use — wire it into telemetry.ServeStatus (or CLI.SetStatus) for the live
// dashboard.
func (c *Context) StatusSnapshot() StatusSnapshot {
	c.sched.mu.Lock()
	st := c.sched.status
	var running []string
	for id := range st.running {
		running = append(running, id)
	}
	var attr *AttributionStatus
	if st.attribution != nil {
		a := *st.attribution
		attr = &a
	}
	lim := c.sched.cells
	c.sched.mu.Unlock()
	sort.Strings(running)
	s := StatusSnapshot{
		ExperimentsTotal: st.expTotal,
		ExperimentsDone:  st.expDone,
		Running:          running,
		CellsDone:        st.cellsDone,
		CellsFailed:      st.cellsFailed,
		Attribution:      attr,
	}
	if lim != nil {
		s.WorkersActive = lim.Active()
		s.WorkersCap = lim.Cap()
		s.QueueDepth = lim.Queued()
	}
	return s
}

// statusUpdate mutates the live status under the scheduler lock.
func (c *Context) statusUpdate(fn func(*statusCounters)) {
	c.sched.mu.Lock()
	if c.sched.status.running == nil {
		c.sched.status.running = make(map[string]bool)
	}
	fn(&c.sched.status)
	c.sched.mu.Unlock()
}

// cellFailureRec tags a manifest failure record with its deterministic sort
// key.
type cellFailureRec struct {
	seq, idx int
	f        telemetry.CellFailure
}

// nextSeq returns the experiment's next sweep sequence number.
func (s *ctxSched) nextSeq(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seqs[id]++
	return s.seqs[id]
}

// flight is one singleflight computation: the first caller computes and
// closes done; everyone else blocks on done and reads val/err.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// once returns the cached value for key, computing it exactly once even
// under concurrent callers — the fix for the duplicate-compute window where
// N parallel cells would each redo trace generation or FLACK profiling.
// Errors are cached too (they are deterministic: unknown app, bad config).
//
// With span tracing on, the computing caller records a "compute" span and
// every caller that actually blocks records a "wait" span — which is how
// singleflight stalls become visible in the Perfetto view. Spans and errors
// name the key by its printed form, which is only built when needed.
func once[K comparable, T any](c *Context, m map[K]*flight[T], key K, compute func() (T, error)) (T, error) {
	cc := c.caches
	cc.mu.Lock()
	if f, ok := m[key]; ok {
		cc.mu.Unlock()
		select {
		case <-f.done: // already complete: a plain cache hit, no span
			return f.val, f.err
		default:
		}
		sp := c.Spans.Begin("singleflight", spanName(c, key)).Arg("state", "wait")
		<-f.done
		sp.End()
		return f.val, f.err
	}
	f := &flight[T]{done: make(chan struct{})}
	m[key] = f
	cc.mu.Unlock()
	defer close(f.done)
	// A panicking computation stays a panic for its own cell, but the
	// flight caches it as an error: a later caller of the same key must
	// fail too, not read a zero value as if it were the result.
	defer func() {
		if p := recover(); p != nil {
			f.err = fmt.Errorf("%v: panic: %v", key, p)
			panic(p)
		}
	}()
	sp := c.Spans.Begin("singleflight", spanName(c, key)).Arg("state", "compute")
	f.val, f.err = compute()
	sp.End()
	return f.val, f.err
}

// spanName prints a memo key for c's singleflight span; without a span log
// it returns "" and prints nothing.
func spanName[K comparable](c *Context, key K) string {
	if c.Spans == nil {
		return ""
	}
	return fmt.Sprint(key)
}

func newCaches() *ctxCaches {
	return &ctxCaches{
		mu:        new(sync.Mutex),
		programs:  make(map[programKey]*flight[*workload.Program]),
		traces:    make(map[string]*flight[tracePair]),
		preps:     make(map[string]*flight[*trace.PreparedTrace]),
		profs:     make(map[string]*flight[*profiles.Profile]),
		behaviors: make(map[runKey]*flight[core.BehaviorResult]),
		times:     make(map[runKey]*flight[core.TimingResult]),
		paths:     make(map[pathKey]*flight[*frontend.Path]),
		plans:     make(map[string]*offline.Decisions),
	}
}

type tracePair struct {
	blocks []trace.Block
	pws    []trace.PW
}

// NewContext builds a context with the paper's default configuration.
func NewContext(blocks int) *Context {
	if blocks <= 0 {
		blocks = 60000
	}
	return &Context{
		Cfg:    core.DefaultConfig(),
		Blocks: blocks,
		caches: newCaches(),
		sched: &ctxSched{
			timings:  make(map[string][]telemetry.AppRun),
			failures: make(map[string][]cellFailureRec),
			seqs:     make(map[string]int),
		},
	}
}

// scoped returns a view of the context whose progress lines and timing
// records are attributed to the experiment id; caches, scheduler and the
// worker budget stay shared.
func (c *Context) scoped(id string) *Context {
	cc := *c
	cc.id = id
	return &cc
}

// withConfig derives a context with a different system configuration. It
// shares the config-independent caches (forConfig) and the scheduler —
// worker budget, limiter, timing records — so the derived run obeys the
// same -parallel budget, reuses the programs and traces already built, and
// reports into the same manifest.
func (c *Context) withConfig(cfg core.Config) *Context {
	cc := *c
	cc.Cfg = cfg
	cc.caches = c.caches.forConfig()
	return &cc
}

// forConfig returns the caches of a context derived for another config.
// Programs, traces, prepared traces, timing paths and keep-plans are keyed
// by everything they are computed from (the spec; app, input and block
// count; plus the geometry signature, the predictor and backend configs,
// or offline.PlanKey), and none reads the context's config, so the derived
// caches share them, under the same lock. Profiles stay per context: their
// key names the geometry's entries and ways but not the whole geometry.
// So do behaviour and timing runs: a profile-guided run reads the
// context's profile, which its key does not name.
func (cc *ctxCaches) forConfig() *ctxCaches {
	d := newCaches()
	d.mu = cc.mu
	d.programs, d.traces, d.preps, d.paths, d.plans = cc.programs, cc.traces, cc.preps, cc.paths, cc.plans
	return d
}

// limiter lazily builds the shared cell limiter sized to the context's
// worker budget, wiring the scheduler's parallel_* metrics.
func (c *Context) limiter() *parallel.Limiter {
	c.sched.mu.Lock()
	defer c.sched.mu.Unlock()
	if c.sched.cells == nil {
		c.sched.cells = parallel.NewLimiter(c.Workers, c.Telemetry.Metrics)
	}
	return c.sched.cells
}

// Timings returns the per-cell wall-clock records collected while running
// the named experiment (for the run manifest).
func (c *Context) Timings(id string) []telemetry.AppRun {
	c.sched.mu.Lock()
	defer c.sched.mu.Unlock()
	return c.sched.timings[id]
}

// Failures returns the named experiment's failed-cell log in deterministic
// (sweep, index) order — the order the cells would have completed in under
// the serial schedule, regardless of the worker count that actually ran.
func (c *Context) Failures(id string) []telemetry.CellFailure {
	c.sched.mu.Lock()
	recs := append([]cellFailureRec(nil), c.sched.failures[id]...)
	c.sched.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].seq != recs[j].seq {
			return recs[i].seq < recs[j].seq
		}
		return recs[i].idx < recs[j].idx
	})
	out := make([]telemetry.CellFailure, len(recs))
	for i, r := range recs {
		out[i] = r.f
	}
	return out
}

// recordFailure logs a cell that errored or panicked.
func (c *Context) recordFailure(seq, idx int, f telemetry.CellFailure) {
	c.sched.mu.Lock()
	defer c.sched.mu.Unlock()
	c.sched.failures[c.id] = append(c.sched.failures[c.id], cellFailureRec{seq: seq, idx: idx, f: f})
}

// recordCell notes one completed (experiment, cell) unit and emits a
// progress line; done is the completion count within the cell sweep.
func (c *Context) recordCell(label string, elapsed time.Duration, done, total int, err error) {
	id := c.id
	run := telemetry.AppRun{App: label, WallSeconds: elapsed.Seconds()}
	if err != nil {
		run.Error = err.Error()
	}
	c.sched.mu.Lock()
	if id != "" {
		c.sched.timings[id] = append(c.sched.timings[id], run)
	}
	c.sched.mu.Unlock()
	if id == "" {
		id = "experiments"
	}
	c.Progress.Step(id, label, done, total, elapsed)
}

// cells runs n labelled heavy units as scheduler cells under the shared
// worker budget, returning results in index order so callers can merge rows
// deterministically. Each cell's wall time lands in the manifest under its
// label; progress lines stay coherent under concurrent completion because
// recordCell serializes them. Cell bodies must not call cells again — the
// budget is held for the body's whole duration, and nesting could deadlock
// at -parallel 1.
//
// Each cell runs through runCell: panic containment and fail-fast — a
// failed cell fails the sweep and so its experiment.
func cells[T any](c *Context, labels []string, fn func(i int) (T, error)) ([]T, error) {
	seq := c.sched.nextSeq(c.id)
	var mu sync.Mutex
	done := 0
	return parallel.MapLimited(c.ctx(), c.limiter(), len(labels), func(i int) (T, error) {
		//simlint:ignore determinism wall-clock progress reporting only; never feeds simulation state
		start := time.Now()
		v, err := runCell(c, seq, i, labels[i], fn)
		mu.Lock()
		done++
		n := done
		mu.Unlock()
		c.recordCell(labels[i], time.Since(start), n, len(labels), err)
		return v, err
	})
}

// runCell executes one cell. The body runs under panic containment, and a
// failure is logged (with the panic stack, if any) and returned.
func runCell[T any](c *Context, seq, i int, label string, fn func(i int) (T, error)) (T, error) {
	site := c.id + "/" + label
	sp := c.Spans.Begin("cell", site)
	var zero T
	if err := c.ctx().Err(); err != nil {
		sp.Arg("cancelled", "true").End()
		return zero, err
	}
	v, err, stack := containCell(fn, i)
	if cerr := c.ctx().Err(); cerr != nil {
		// The campaign was cancelled while this cell ran; the offline
		// solve inside it may have been abandoned, so the result could be
		// incomplete. Discard it and surface the cancellation.
		sp.Arg("cancelled", "true").End()
		return zero, cerr
	}
	if err != nil {
		c.recordFailure(seq, i, telemetry.CellFailure{Cell: site, Error: err.Error(), Stack: stack})
		c.statusUpdate(func(s *statusCounters) { s.cellsFailed++ })
		sp.Arg("failed", "true").End()
		return zero, err
	}
	c.statusUpdate(func(s *statusCounters) { s.cellsDone++ })
	sp.End()
	return v, nil
}

// containCell runs a cell body with any panic converted into an error and
// the goroutine stack, so a crashing cell fails like any other cell instead
// of tearing down the whole campaign.
func containCell[T any](fn func(i int) (T, error), i int) (v T, err error, stack string) {
	defer func() {
		if p := recover(); p != nil {
			var zero T
			v = zero
			err = fmt.Errorf("cell panic: %v", p)
			stack = string(debug.Stack())
		}
	}()
	v, err = fn(i)
	return v, err, ""
}

// appRows runs fn once per application as independent scheduler cells,
// collecting each app's typed row group; callers merge the groups in
// AppList order so tables are byte-identical at any worker count. The first
// error (lowest app index among cells that ran) cancels unstarted cells.
func appRows[T any](c *Context, fn func(app string) (T, error)) ([]T, error) {
	apps := c.AppList()
	return cells(c, apps, func(i int) (T, error) { return fn(apps[i]) })
}

// runOpts returns BehaviorOptions carrying the context's cancellation
// handle, telemetry, solver worker budget and keep-plan cache, plus the
// shared prepared trace of (app, input) under geom. A failed preparation
// leaves Prepared nil, so the run builds its own.
func (c *Context) runOpts(app string, input int, geom uopcache.Config) core.BehaviorOptions {
	pt, _ := c.Prepared(app, input, geom)
	return core.BehaviorOptions{Ctx: c.Ctx, Telemetry: c.Telemetry, Workers: c.Workers, Plans: c.plans(), Prepared: pt}
}

// offlineOpts is runOpts for offline replays: it fills the same
// attachments into o.
func (c *Context) offlineOpts(app string, input int, geom uopcache.Config, o offline.Options) offline.Options {
	r := c.runOpts(app, input, geom)
	o.Ctx = r.Ctx
	o.Metrics = r.Telemetry.Metrics
	o.Events = r.Telemetry.Events
	o.Workers = r.Workers
	o.Plans = r.Plans
	o.Prepared = r.Prepared
	return o
}

// AppList returns the applications under study.
func (c *Context) AppList() []string {
	if len(c.Apps) > 0 {
		return c.Apps
	}
	return workload.Names()
}

// collectProfile is an indirection seam so the singleflight tests can
// count how often the underlying computation actually runs.
var collectProfile = profiles.CollectWith

// programKey names a memoized static program: the whole workload.Spec,
// which is all Spec.Build reads, so a spec that differs in any field, its
// layout seed included, gets a program of its own.
type programKey struct{ spec workload.Spec }

// String names the program in singleflight spans and errors.
func (k programKey) String() string { return k.spec.Name }

// program returns (cached) the app's static program, keyed by programKey.
// Generate only reads a program, so every trace of the app, on any worker,
// is generated from this one.
func (c *Context) program(app string) (*workload.Program, error) {
	spec, err := workload.Get(app)
	if err != nil {
		return nil, err
	}
	built := false
	p, err := once(c, c.caches.programs, programKey{spec}, func() (*workload.Program, error) {
		built = true
		return spec.Build(), nil
	})
	c.sched.memo.programs.note(built)
	return p, err
}

// generate returns the block trace and PW sequence of an app/input,
// generated from the app's cached program (core.ProgramTrace, the code
// behind core.TraceFor). Nothing keeps them: Trace memoizes them, and
// Profile streams a training input's.
func (c *Context) generate(app string, input int) ([]trace.Block, []trace.PW, error) {
	p, err := c.program(app)
	if err != nil {
		return nil, nil, err
	}
	blocks, pws := core.ProgramTrace(p, c.Blocks, input)
	return blocks, pws, nil
}

// Trace returns (cached) the block trace and PW sequence for an app/input.
// Concurrent callers of the same key share one generation.
func (c *Context) Trace(app string, input int) ([]trace.Block, []trace.PW, error) {
	key := fmt.Sprintf("%s/%d/%d", app, input, c.Blocks)
	tp, err := once(c, c.caches.traces, key, func() (tracePair, error) {
		blocks, pws, err := c.generate(app, input)
		return tracePair{blocks: blocks, pws: pws}, err
	})
	return tp.blocks, tp.pws, err
}

// Prepared returns (cached) the shared columnar prepared trace for an
// app/input under the micro-op cache geometry geom: precomputed set
// indices, footprints and the occurrence index every replay of the same
// trace would otherwise rebuild privately. Geometries with the same Sig
// share one trace, and concurrent callers share one build.
func (c *Context) Prepared(app string, input int, geom uopcache.Config) (*trace.PreparedTrace, error) {
	key := fmt.Sprintf("%s/%d/%d/%x", app, input, c.Blocks, geom.Sig())
	return once(c, c.caches.preps, key, func() (*trace.PreparedTrace, error) {
		_, pws, err := c.Trace(app, input)
		if err != nil {
			return nil, err
		}
		return uopcache.Prepare(geom, pws), nil
	})
}

// Profile returns (cached) the offline profile for an app/input/source
// under the context's micro-op cache geometry. Concurrent callers of the
// same key invoke the collection exactly once. The default input's trace
// and prepared trace come from (and stay in) Trace's and Prepared's memos,
// which every figure reads. Any other input is a training input: only its
// profile is read again, so its trace is generated, prepared and dropped
// inside this collection, and only the profile stays cached.
func (c *Context) Profile(app string, input int, src profiles.Source) (*profiles.Profile, error) {
	geom := c.Cfg.UopCache
	key := fmt.Sprintf("%s/%d/%v/%d/%d/%d", app, input, src, c.Blocks, geom.Entries, geom.Ways)
	return once(c, c.caches.profs, key, func() (*profiles.Profile, error) {
		var pws []trace.PW
		var err error
		if input == 0 {
			_, pws, err = c.Trace(app, input)
		} else {
			_, pws, err = c.generate(app, input)
		}
		if err != nil {
			return nil, err
		}
		var pt *trace.PreparedTrace
		if input == 0 {
			pt, _ = c.Prepared(app, input, geom)
		} else {
			pt = uopcache.Prepare(geom, pws)
		}
		// The attachments runOpts hands every run.
		prof := collectProfile(pws, geom, src, profiles.CollectOptions{
			Ctx:      c.Ctx,
			Metrics:  c.Telemetry.Metrics,
			Events:   c.Telemetry.Events,
			Prepared: pt,
			Plans:    c.plans(),
			Workers:  c.Workers,
		})
		// A solve abandoned by cancellation leaves the profile
		// incomplete; cache the cancellation instead.
		if err := c.ctx().Err(); err != nil {
			return nil, err
		}
		return prof, nil
	})
}

// Runner is an experiment entry point.
type Runner func(ctx *Context) (*Table, error)

// RunResult is one experiment's outcome from RunMany.
type RunResult struct {
	ID          string
	Table       *Table
	Err         error
	WallSeconds float64
	// Apps holds the per-cell wall-clock records (manifest material).
	Apps []telemetry.AppRun
	// Failed lists the cells that errored or panicked, in deterministic
	// (sweep, index) order. A failed cell fails its experiment, so when
	// Failed is non-empty Err is set and Table is nil.
	Failed []telemetry.CellFailure
}

// RunMany executes the named experiments under the context's worker budget.
// With Workers == 1 it reproduces the exact serial schedule; otherwise every
// experiment orchestrates concurrently while heavy cells share the budget.
// Results come back in input order, and emit (optional) is called for each
// result in input order as soon as it and all its predecessors completed —
// so a driver can stream tables without reordering output.
//
// Cancelling c.Ctx drains the campaign gracefully: experiments already
// running finish their in-flight cells and return, queued experiments are
// abandoned, and every unfinished id comes back (and is emitted) with
// Err = c.Ctx.Err() so the driver can mark the run interrupted.
func RunMany(c *Context, ids []string, emit func(RunResult)) []RunResult {
	out := make([]RunResult, len(ids))
	c.statusUpdate(func(s *statusCounters) { s.expTotal += len(ids) })
	workers := 1
	if parallel.Workers(c.Workers) > 1 {
		workers = len(ids)
	}
	var mu sync.Mutex
	finished := make([]bool, len(ids))
	next := 0
	flush := func() { // mu held
		for next < len(ids) && finished[next] {
			if emit != nil {
				emit(out[next])
			}
			next++
		}
	}
	parallel.Map(c.Ctx, workers, len(ids), func(i int) (struct{}, error) {
		r := c.runOne(ids[i])
		mu.Lock()
		out[i], finished[i] = r, true
		flush()
		mu.Unlock()
		return struct{}{}, nil
	})
	// A cancellation abandons queued experiments; fill their slots so the
	// manifest shows every requested id with why it did not run. Cells that
	// DID run (and fail) before the interrupt still belong in the manifest,
	// so the fill carries the per-experiment timings and failures too.
	mu.Lock()
	for i := range out {
		if !finished[i] {
			err := c.ctx().Err()
			if err == nil {
				err = context.Canceled
			}
			out[i] = RunResult{ID: ids[i], Err: err, Apps: c.Timings(ids[i]), Failed: c.Failures(ids[i])}
			finished[i] = true
		}
	}
	flush()
	mu.Unlock()
	return out
}

// runOne executes a single experiment under a scoped view of the context.
func (c *Context) runOne(id string) RunResult {
	r := RunResult{ID: id}
	run, ok := Lookup(id)
	if !ok {
		r.Err = fmt.Errorf("unknown experiment %q", id)
		return r
	}
	c.statusUpdate(func(s *statusCounters) { s.running[id] = true })
	sp := c.Spans.Begin("experiment", id)
	//simlint:ignore determinism wall-clock bookkeeping for the manifest only
	start := time.Now()
	r.Table, r.Err = runContained(run, c.scoped(id))
	r.WallSeconds = time.Since(start).Seconds()
	sp.End()
	c.statusUpdate(func(s *statusCounters) { delete(s.running, id); s.expDone++ })
	r.Apps = c.Timings(id)
	r.Failed = c.Failures(id)
	return r
}

// runContained invokes an experiment body with panics converted to errors,
// so a panic outside any cell (table assembly, row merging) fails its own
// RunResult instead of tearing down the whole campaign.
func runContained(run Runner, c *Context) (t *Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			t = nil
			err = fmt.Errorf("experiment panic: %v\n%s", p, debug.Stack())
		}
	}()
	return run(c)
}

// Registry maps experiment ids (tab1, fig8, ...) to runners, in paper
// order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"tab1", Table1},
		{"tab2", Table2},
		{"fig2", Fig2PerfectStructures},
		{"sec3b", Sec3BMissClasses},
		{"sec3e", Sec3EReuseDistances},
		{"fig5", Fig5ExistingPolicies},
		{"fig8", Fig8FURBYSMissReduction},
		{"fig9", Fig9PPW},
		{"fig10", Fig10FLACKAblation},
		{"fig11", Fig11IPC},
		{"fig12", Fig12ISOPerformance},
		{"fig13", Fig13EnergyBreakdownClang},
		{"fig14", Fig14EnergyReductionBreakdown},
		{"fig15", Fig15ProfileSources},
		{"fig16", Fig16SizeAssocSweep},
		{"fig17", Fig17Zen4PPW},
		{"fig18", Fig18CrossValidation},
		{"fig19", Fig19WeightBits},
		{"fig20", Fig20DetectorDepth},
		{"fig21", Fig21Bypass},
		{"fig22", Fig22Hotness},
		{"coverage", CoverageStats},
		{"sens-inclusion", SensInclusion},
		{"sens-delay", SensInsertDelay},
		{"sens-segment", SensSegmentLimit},
		{"sens-fragmentation", SensFragmentation},
		{"sens-objective", SensObjective},
	}
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// IDs lists experiment ids in order.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}

// geomean-free mean helper.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
