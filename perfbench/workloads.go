package main

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"uopsim/internal/artifact"
	"uopsim/internal/core"
	"uopsim/internal/experiments"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// Input sizes, in dynamic blocks per application. They are chosen so that a
// pass is long enough to time on a noisy host yet short enough that a run
// holds a dozen or more passes (see README.md).
const (
	campaignBlocks = 5000
	replayBlocks   = 10000
	timingBlocks   = 10000
)

// campaignIDs is the nine-CSV figure campaign of EXPERIMENTS.md.
var campaignIDs = []string{"tab1", "tab2", "fig2", "fig8", "fig10", "fig12", "fig14", "fig18", "fig21"}

// timingPolicies are the policies the timing workload drives through the
// frontend: the paper's baseline and its proposal.
var timingPolicies = []string{"lru", "furbys"}

// workloadDef names a workload and builds its per-run state. setup does all
// the work a pass must not repeat; the caller adds one discarded warm-up pass
// and counts both as set-up time.
type workloadDef struct {
	name  string
	why   string
	setup func(seed int64, dir string) (runner, error)
}

// runner executes one timed pass. Identical passes must produce identical
// digests; simInst is the simulated instruction count of the pass (0 when
// the workload cannot count it from outside the program). A long pass calls
// lap between its parts so the host speed is measured between them.
type runner interface {
	pass(t *tracer, lap func()) (passOut, error)
}

type passOut struct {
	digest  string
	simInst uint64
}

var workloads = []workloadDef{
	{"campaign", "the nine-CSV figure campaign a user runs to regenerate the paper: generation, PW formation, flow solves, profiles, replay and timing", setupCampaign},
	{"replay", "behaviour-mode replay of 11 apps under 12 policies from prepared traces and a warm plan store: cache, policies, offline replay, artifact reads", setupReplay},
	{"timing", "timing-mode runs of 11 apps under lru and furbys: frontend pipeline, its own PW formation and cycle-delay insertion, power", setupTiming},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// appTrace is one application's generated input and what setup derived
// from it.
type appTrace struct {
	name   string
	blocks []trace.Block
	pws    []trace.PW
	pt     *trace.PreparedTrace
	prof   *profiles.Profile
	inst   uint64
}

// relocate moves an application's code to a seed-chosen load address, as
// address-space layout randomisation would: every block, branch target and
// branch PC shifts by the same byte offset, so the program and its dynamic
// path are unchanged while PW boundaries and cache-set mapping change. Seed
// 0 leaves the paper's traces as they are. Perturbing the generator's layout
// seed or input variant instead changes the work of a pass by 10-30% between
// seeds, which no repetition within a run can hide (see README.md).
func relocate(blocks []trace.Block, seed int64, app int) {
	if seed == 0 {
		return
	}
	// splitmix64 of (seed, app): independent offsets per app, below 1 MiB.
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(app+1)*0xbf58476d1ce4e5b9
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	off := (x ^ x>>31) % (1 << 20)
	for i := range blocks {
		b := &blocks[i]
		b.Addr += off
		if b.Target != 0 {
			b.Target += off
		}
		if b.BranchPC != 0 {
			b.BranchPC += off
		}
	}
}

// genApps generates every application's block trace, relocated for the
// seed, and its PW sequence, recording generation and formation spans in t.
func genApps(seed int64, blocks int, t *tracer) ([]*appTrace, error) {
	var apps []*appTrace
	for i, name := range workload.Names() {
		spec, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		a := &appTrace{name: name}
		t.do("workload.GenerateSpec", "genApps", func() { a.blocks = workload.GenerateSpec(spec, blocks, 0) })
		relocate(a.blocks, seed, i)
		t.do("trace.FormPWs", "genApps", func() { a.pws = trace.FormPWs(a.blocks, 0) })
		for _, b := range a.blocks {
			a.inst += uint64(b.NumInst)
		}
		apps = append(apps, a)
	}
	return apps, nil
}

// campaign regenerates the nine CSVs on a fresh Context each pass.
type campaign struct{}

func setupCampaign(int64, string) (runner, error) { return campaign{}, nil }

func (campaign) pass(t *tracer, lap func()) (passOut, error) {
	res, err := runCampaign(t, lap)
	if err != nil {
		return passOut{}, err
	}
	d := newDigest()
	for _, r := range res {
		var buf bytes.Buffer
		if err := r.Table.CSV(&buf); err != nil {
			return passOut{}, err
		}
		d.addBytes(r.ID, buf.Bytes())
	}
	return passOut{digest: d.sum()}, nil
}

// runCampaign runs the campaign serially with no artifact store, recording
// experiment and cell spans into t, and fails on any experiment error or
// degraded cell. With one worker, RunMany runs experiments one after the
// other on the shared Context, so running them one call at a time does the
// same work; lap runs between them.
func runCampaign(t *tracer, lap func()) ([]experiments.RunResult, error) {
	ctx := experiments.NewContext(campaignBlocks)
	ctx.Workers = 1
	ctx.Spans = t.spans()
	var res []experiments.RunResult
	for _, id := range campaignIDs {
		var rs []experiments.RunResult
		t.do("experiments.RunMany", "pass", func() { rs = experiments.RunMany(ctx, []string{id}, nil) })
		for _, r := range rs {
			if r.Err != nil {
				return nil, fmt.Errorf("%s: %w", r.ID, r.Err)
			}
			if len(r.Failed) > 0 || r.Table == nil {
				return nil, fmt.Errorf("%s: %d failed cells", r.ID, len(r.Failed))
			}
		}
		res = append(res, rs...)
		lap()
	}
	return res, nil
}

// replay holds prepared traces, FLACK profiles and a warm plan store.
type replay struct {
	apps  []*appTrace
	store *artifact.Store
	plans offline.PlanCache
	cfg   core.Config
}

func setupReplay(seed int64, dir string) (runner, error) {
	apps, err := genApps(seed, replayBlocks, nil)
	if err != nil {
		return nil, err
	}
	storeDir, err := os.MkdirTemp(dir, "plans-")
	if err != nil {
		return nil, err
	}
	store, err := artifact.Open(storeDir)
	if err != nil {
		return nil, err
	}
	r := &replay{apps: apps, store: store, plans: offline.NewPlanStore(store), cfg: core.DefaultConfig()}
	for _, a := range apps {
		a.blocks = nil // replay never reads blocks
		a.pt = uopcache.Prepare(r.cfg.UopCache, a.pws)
		// The FLACK profile solves and stores the FLACK plan; the FOO
		// plan is solved into the store here, so every pass only reads.
		a.prof = profiles.CollectWith(a.pws, r.cfg.UopCache, profiles.SourceFLACK,
			profiles.CollectOptions{Prepared: a.pt, Plans: r.plans, Workers: 1})
		offline.ComputeDecisionsCached(context.Background(), a.pws, a.pt, r.cfg.UopCache, offline.CostOHR, false, 0, 1, r.plans)
	}
	return r, nil
}

func (r *replay) pass(t *tracer, _ func()) (passOut, error) {
	misses := r.store.Stats()["plan"].Misses
	d := newDigest()
	var sim uint64
	for _, a := range r.apps {
		for _, name := range core.PolicyNames() {
			pol, err := core.NewPolicy(name, a.prof, r.cfg.UopCache, policy.FURBYSConfig{})
			if err != nil {
				return passOut{}, err
			}
			var res core.BehaviorResult
			t.do("core.RunBehavior."+metricName(name), "pass", func() {
				res = core.RunBehavior(a.pws, r.cfg, pol, core.BehaviorOptions{Prepared: a.pt, Workers: 1})
			})
			if err := record(d, a.name, name, res.Stats); err != nil {
				return passOut{}, err
			}
			sim += a.inst
		}
		for _, name := range core.OfflineNames() {
			var res core.BehaviorResult
			var err error
			t.do("core.RunBehaviorByName."+name, "pass", func() {
				res, err = core.RunBehaviorByName(name, a.pws, r.cfg, core.BehaviorOptions{Prepared: a.pt, Plans: r.plans, Workers: 1})
			})
			if err != nil {
				return passOut{}, err
			}
			if err := record(d, a.name, name, res.Stats); err != nil {
				return passOut{}, err
			}
			sim += a.inst
		}
	}
	if m := r.store.Stats()["plan"].Misses; m != misses {
		return passOut{}, fmt.Errorf("plan store missed %d plans in a warm pass", m-misses)
	}
	return passOut{digest: d.sum(), simInst: sim}, nil
}

// record checks a run's Stats invariants and adds it to the digest.
func record(d *digest, app, pol string, s uopcache.Stats) error {
	if err := checkStats(s); err != nil {
		return fmt.Errorf("%s/%s: %w", app, pol, err)
	}
	d.add(app+"/"+pol, s)
	return nil
}

// timing holds block traces and FLACK profiles for the frontend runs.
type timing struct {
	apps []*appTrace
	cfg  core.Config
}

func setupTiming(seed int64, _ string) (runner, error) {
	apps, err := genApps(seed, timingBlocks, nil)
	if err != nil {
		return nil, err
	}
	tm := &timing{apps: apps, cfg: core.DefaultConfig()}
	for _, a := range apps {
		a.prof = profiles.CollectWith(a.pws, tm.cfg.UopCache, profiles.SourceFLACK, profiles.CollectOptions{Workers: 1})
	}
	return tm, nil
}

func (tm *timing) pass(t *tracer, _ func()) (passOut, error) {
	d := newDigest()
	var sim uint64
	for _, a := range tm.apps {
		for _, name := range timingPolicies {
			var res core.TimingResult
			var err error
			t.do("core.RunTimingByNameWith."+name, "pass", func() {
				res, err = core.RunTimingByNameWith(name, a.blocks, a.pws, tm.cfg, a.prof, core.TimingOptions{Workers: 1})
			})
			if err != nil {
				return passOut{}, err
			}
			if err := record(d, a.name, name, res.Frontend.UopCache); err != nil {
				return passOut{}, err
			}
			d.add(a.name+"/"+name+"/frontend", res.Frontend)
			d.add(a.name+"/"+name+"/power", res.Power)
			sim += a.inst
		}
	}
	return passOut{digest: d.sum(), simInst: sim}, nil
}
