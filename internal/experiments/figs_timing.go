package experiments

import (
	"fmt"

	"uopsim/internal/backend"
	"uopsim/internal/branch"
	"uopsim/internal/core"
	"uopsim/internal/frontend"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
)

// timing runs (memoized) the timing model for a named policy on an app
// under cfg. It is the package's one timing entry: every figure that needs a
// frontend simulation asks here, so runs that several figures share — the
// Table-I LRU baseline behind tab2, fig2, fig12, fig13 and fig14, FURBYS at
// the context geometry behind fig9, fig12, fig13 and fig14 — simulate once
// per Context. Concurrent cells needing the same run share one flight.
//
// The key (runKey) covers the app, the Context's block count and input, the
// policy name and the whole cfg, so two configs that differ in any field
// never share an entry. Profile-guided policies use the context's
// FLACK profile, and every simulation walks the trace's shared timing path
// (timingPath). A memo hit simulates nothing, so it streams no uopcache_*
// events and moves no uopcache_* or frontend_* metrics; it counts one
// timing_memo_hit_total, a simulation one timing_memo_miss_total.
func (c *Context) timing(app string, cfg core.Config, name string) (core.TimingResult, error) {
	key := runKey{app: app, blocks: c.Blocks, name: name, cfg: cfg}
	simulated := false
	res, err := once(c, c.caches.times, key, func() (core.TimingResult, error) {
		simulated = true
		blocks, pws, err := c.Trace(app, 0)
		if err != nil {
			return core.TimingResult{}, err
		}
		var prof *profiles.Profile
		if name == "thermometer" || name == "furbys" {
			prof, err = c.Profile(app, 0, profiles.SourceFLACK)
			if err != nil {
				return core.TimingResult{}, err
			}
		}
		path, err := c.timingPath(app, cfg)
		if err != nil {
			return core.TimingResult{}, err
		}
		r := c.runOpts(app, 0, cfg.UopCache)
		return core.RunTimingByNameWith(name, blocks, pws, cfg, prof, core.TimingOptions{
			Telemetry: r.Telemetry, Prepared: r.Prepared, Plans: r.Plans, Workers: r.Workers, Path: path,
		})
	})
	c.sched.memo.runs.note(simulated)
	if m := c.Telemetry.Metrics; m != nil {
		if simulated {
			m.Counter("timing_memo_miss_total").Inc()
		} else {
			m.Counter("timing_memo_hit_total").Inc()
		}
	}
	return res, err
}

// timingPath returns (memoized) the policy-independent timing path of app's
// trace under cfg's predictor and backend: window placement, branch
// outcomes and data-side stalls, which no micro-op cache policy, geometry
// or frontend switch changes. All of a trace's timing runs under one
// predictor and backend share a path, so the campaign builds one per app
// (fig17's Zen4 predictor gets its own). A request that builds counts one
// timing_path_memo_miss_total, any other one timing_path_memo_hit_total.
// A trace whose windows are not its FormPWs windows panics in the build and
// fails the requesting cell; later requests get the cached error.
func (c *Context) timingPath(app string, cfg core.Config) (*frontend.Path, error) {
	key := pathKey{app: app, blocks: c.Blocks, branch: cfg.Branch, backend: cfg.Backend}
	built := false
	path, err := once(c, c.caches.paths, key, func() (*frontend.Path, error) {
		built = true
		blocks, pws, err := c.Trace(app, 0)
		if err != nil {
			return nil, err
		}
		return frontend.NewPath(blocks, pws, cfg.Branch, cfg.Backend), nil
	})
	c.sched.memo.paths.note(built)
	if m := c.Telemetry.Metrics; m != nil {
		if built {
			m.Counter("timing_path_memo_miss_total").Inc()
		} else {
			m.Counter("timing_path_memo_hit_total").Inc()
		}
	}
	return path, err
}

// runKey names a memoized behaviour or timing run of an app's input-0
// trace at a block count: the policy, the whole config and, for behaviour
// runs, the FURBYS tuning. The configs are comparable values, so the key
// covers every field of both without printing or hashing them.
type runKey struct {
	app    string
	blocks int
	name   string
	cfg    core.Config
	fcfg   policy.FURBYSConfig
}

// String names the run in singleflight spans and errors.
func (k runKey) String() string {
	return fmt.Sprintf("%s/0/%d/%s/%s", k.app, k.blocks, k.name, k.cfg.Name)
}

// pathKey names a memoized timing path: an app's input-0 trace at a block
// count under one predictor and one backend config, every field of each.
type pathKey struct {
	app     string
	blocks  int
	branch  branch.Config
	backend backend.Config
}

// String names the path in singleflight spans and errors.
func (k pathKey) String() string { return fmt.Sprintf("%s/0/%d", k.app, k.blocks) }

// Fig2PerfectStructures reproduces Fig. 2: per-core performance-per-watt
// gain when each frontend structure is made perfect.
func Fig2PerfectStructures(ctx *Context) (*Table, error) {
	t := &Table{Name: "fig2", Title: "PPW gain of perfect structures over LRU baseline (Fig. 2)",
		Columns: []string{"application", "perfect uop cache", "perfect icache", "perfect BP", "perfect BTB"}}
	type variant struct {
		name  string
		apply func(*core.Config)
	}
	variants := []variant{
		{"uop", func(c *core.Config) { c.Frontend.PerfectUopCache = true }},
		{"icache", func(c *core.Config) { c.Frontend.PerfectICache = true }},
		{"bp", func(c *core.Config) { c.Frontend.PerfectBP = true }},
		{"btb", func(c *core.Config) { c.Frontend.PerfectBTB = true }},
	}
	rows, err := appRows(ctx, func(app string) ([]float64, error) {
		base, err := ctx.timing(app, ctx.Cfg, "lru")
		if err != nil {
			return nil, err
		}
		gains := make([]float64, len(variants))
		for i, v := range variants {
			cfg := ctx.Cfg
			v.apply(&cfg)
			res, err := ctx.timing(app, cfg, "lru")
			if err != nil {
				return nil, err
			}
			gains[i] = res.PPW/base.PPW - 1
		}
		return gains, nil
	})
	if err != nil {
		return nil, err
	}
	t.addAppPcts(ctx.AppList(), rows)
	t.Notes = append(t.Notes, "Paper: the perfect micro-op cache gives the largest gain, 7.41% on average.")
	return t, nil
}

// ppwTable renders PPW gains over LRU for a policy list under a config,
// running applications as concurrent cells.
func (c *Context) ppwTable(name, title string, policyNames []string, notes ...string) (*Table, error) {
	t := &Table{Name: name, Title: title, Columns: append([]string{"application"}, policyNames...), Notes: notes}
	rows, err := appRows(c, func(app string) ([]float64, error) {
		base, err := c.timing(app, c.Cfg, "lru")
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(policyNames))
		for i, p := range policyNames {
			res, err := c.timing(app, c.Cfg, p)
			if err != nil {
				return nil, err
			}
			row[i] = res.PPW/base.PPW - 1
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.addAppPcts(c.AppList(), rows)
	return t, nil
}

// Fig9PPW reproduces Fig. 9: FURBYS performance-per-watt gain.
func Fig9PPW(ctx *Context) (*Table, error) {
	return ctx.ppwTable("fig9", "Performance-per-watt gain over LRU (Fig. 9)",
		[]string{"srrip", "ship++", "ghrp", "mockingjay", "thermometer", "furbys"},
		"Paper: FURBYS gains 3.10% PPW on average, ~5.1x the existing policies.")
}

// Fig11IPC reproduces Fig. 11: IPC speedup over LRU.
func Fig11IPC(ctx *Context) (*Table, error) {
	names := []string{"srrip", "ship++", "ghrp", "mockingjay", "thermometer", "furbys", "flack"}
	t := &Table{Name: "fig11", Title: "IPC speedup over LRU (Fig. 11)",
		Columns: append(append([]string{"application"}, names...), "infinite uop cache")}
	rows, err := appRows(ctx, func(app string) ([]float64, error) {
		base, err := ctx.timing(app, ctx.Cfg, "lru")
		if err != nil {
			return nil, err
		}
		speedups := make([]float64, 0, len(names)+1)
		for _, p := range names {
			res, err := ctx.timing(app, ctx.Cfg, p)
			if err != nil {
				return nil, err
			}
			speedups = append(speedups, res.Frontend.IPC()/base.Frontend.IPC()-1)
		}
		// Infinite (perfect) micro-op cache bound: fig2's "uop" variant.
		cfg := ctx.Cfg
		cfg.Frontend.PerfectUopCache = true
		inf, err := ctx.timing(app, cfg, "lru")
		if err != nil {
			return nil, err
		}
		speedups = append(speedups, inf.Frontend.IPC()/base.Frontend.IPC()-1)
		return speedups, nil
	})
	if err != nil {
		return nil, err
	}
	t.addAppPcts(ctx.AppList(), rows)
	t.Notes = append(t.Notes, "Paper: FURBYS speeds up IPC by ~0.49% (60% of FLACK, 28.48% of an infinite micro-op cache); miss reduction only partially translates to IPC.")
	return t, nil
}

// fig12Configs are fig12's rows in order: LRU from 512 to 1024 entries in
// 25% steps, keeping 64 sets and scaling ways, then FURBYS at 512.
var fig12Configs = []struct {
	label   string
	entries int
	ways    int
	furbys  bool
}{
	{"lru@512", 512, 8, false},
	{"lru@640", 640, 10, false},
	{"lru@768", 768, 12, false},
	{"lru@896", 896, 14, false},
	{"lru@1024", 1024, 16, false},
	{"furbys@512", 512, 8, true},
}

// Fig12ISOPerformance reproduces Fig. 12: how large an LRU cache must be to
// match FURBYS at 512 entries. Each capacity point is one scheduler cell.
func Fig12ISOPerformance(ctx *Context) (*Table, error) {
	t := &Table{Name: "fig12", Title: "ISO-performance: LRU at larger capacities vs FURBYS@512 (Fig. 12)",
		Columns: []string{"configuration", "mean uop miss rate", "mean IPC", "mean miss reduction vs LRU@512"}}
	rows := fig12Configs
	labels := make([]string, len(rows))
	for i, rc := range rows {
		labels[i] = rc.label
	}
	type point struct{ MissRate, IPC, Red float64 }
	points, err := cells(ctx, labels, func(i int) (point, error) {
		rc := rows[i]
		cfg := ctx.Cfg
		cfg.UopCache.Entries = rc.entries
		cfg.UopCache.Ways = rc.ways
		if err := cfg.UopCache.Validate(); err != nil {
			return point{}, fmt.Errorf("fig12 config %s: %w", rc.label, err)
		}
		polName := "lru"
		if rc.furbys {
			polName = "furbys"
		}
		var missRates, ipcs, reds []float64
		for _, app := range ctx.AppList() {
			base, err := ctx.lruBaseline(app)
			if err != nil {
				return point{}, err
			}
			// The LRU row at the context geometry is the baseline itself,
			// and FURBYS there is fig8's replay.
			beh, err := ctx.behavior(app, cfg, polName, policy.FURBYSConfig{})
			if err != nil {
				return point{}, err
			}
			missRates = append(missRates, beh.Stats.UopMissRate())
			reds = append(reds, core.MissReduction(base, beh.Stats))

			tim, err := ctx.timing(app, cfg, polName)
			if err != nil {
				return point{}, err
			}
			ipcs = append(ipcs, tim.Frontend.IPC())
		}
		return point{MissRate: mean(missRates), IPC: mean(ipcs), Red: mean(reds)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		t.AddRow(Label(rows[i].label), Fixed(p.MissRate, 4), Fixed(p.IPC, 4), Pct(p.Red))
	}
	t.Notes = append(t.Notes, "Paper: LRU needs ~1.5x the capacity on average (2x for Postgres) to match FURBYS.")
	return t, nil
}

// Fig13EnergyBreakdownClang reproduces Fig. 13: per-core energy breakdown on
// Clang for no-uop-cache, LRU, and FURBYS — each configuration one cell.
func Fig13EnergyBreakdownClang(ctx *Context) (*Table, error) {
	app := "clang"
	t := &Table{Name: "fig13", Title: "Per-core energy breakdown on Clang (Fig. 13)",
		Columns: []string{"configuration", "decoder", "icache", "uop cache", "others", "total vs no-uop-cache"}}
	labels := []string{"no uop cache", "lru", "furbys"}
	results, err := cells(ctx, labels, func(i int) (core.TimingResult, error) {
		switch i {
		case 0:
			noCfg := ctx.Cfg
			noCfg.Frontend.DisableUopCache = true
			return ctx.timing(app, noCfg, "lru")
		case 1:
			return ctx.timing(app, ctx.Cfg, "lru")
		default:
			return ctx.timing(app, ctx.Cfg, "furbys")
		}
	})
	if err != nil {
		return nil, err
	}
	baseTotal := results[0].Power.Total()
	for i, label := range labels {
		b := results[i].Power
		others := b.Total() - b.Decoder - b.ICache - b.UopCache
		t.AddRow(Label(label),
			Pct(b.Decoder/b.Total()), Pct(b.ICache/b.Total()), Pct(b.UopCache/b.Total()),
			Pct(others/b.Total()), Pct(b.Total()/baseTotal))
	}
	t.Notes = append(t.Notes,
		"Paper: without a uop cache the decoder takes 12.5% and the icache 7.7% of per-core power; adding an LRU uop cache saves 8.1%; FURBYS saves a further 2.2%.")
	return t, nil
}

// Fig14EnergyReductionBreakdown reproduces Fig. 14: where FURBYS's energy
// savings come from relative to LRU.
func Fig14EnergyReductionBreakdown(ctx *Context) (*Table, error) {
	t := &Table{Name: "fig14", Title: "Energy-reduction breakdown of FURBYS vs LRU (Fig. 14)",
		Columns: []string{"application", "icache", "uop-cache insertion", "decoder", "other", "total saved"}}
	type row struct {
		Skip    bool
		Shares  [4]float64
		TotFrac float64
	}
	rows, err := appRows(ctx, func(app string) (row, error) {
		lru, err := ctx.timing(app, ctx.Cfg, "lru")
		if err != nil {
			return row{}, err
		}
		fu, err := ctx.timing(app, ctx.Cfg, "furbys")
		if err != nil {
			return row{}, err
		}
		dIc := lru.Power.ICache - fu.Power.ICache
		dUop := lru.Power.UopCache - fu.Power.UopCache
		dDec := lru.Power.Decoder - fu.Power.Decoder
		dTot := lru.Power.Total() - fu.Power.Total()
		dOther := dTot - dIc - dUop - dDec
		if dTot <= 0 {
			return row{Skip: true, TotFrac: dTot / lru.Power.Total()}, nil
		}
		return row{Shares: [4]float64{dIc / dTot, dUop / dTot, dDec / dTot, dOther / dTot},
			TotFrac: dTot / lru.Power.Total()}, nil
	})
	if err != nil {
		return nil, err
	}
	var sums [4]float64
	n := 0
	for i, app := range ctx.AppList() {
		r := rows[i]
		if r.Skip {
			t.AddRow(Label(app), Label("-"), Label("-"), Label("-"), Label("-"), Pct(r.TotFrac))
			continue
		}
		n++
		for k := 0; k < 4; k++ {
			sums[k] += r.Shares[k]
		}
		t.AddRow(Label(app), Pct(r.Shares[0]), Pct(r.Shares[1]), Pct(r.Shares[2]), Pct(r.Shares[3]), Pct(r.TotFrac))
	}
	if n > 0 {
		t.AddRow(Label("MEAN"), Pct(sums[0]/float64(n)), Pct(sums[1]/float64(n)), Pct(sums[2]/float64(n)), Pct(sums[3]/float64(n)), Label(""))
	}
	t.Notes = append(t.Notes, "Paper: ~7.75% of the gain comes from the icache, 73.26% from fewer uop-cache insertions, 16.35% from the decoder.")
	return t, nil
}

// Fig17Zen4PPW reproduces Fig. 17: PPW gains under the Zen4 configuration.
// The derived context gets fresh caches (different geometry) but shares the
// scheduler, so the run obeys the same worker budget and its cell timings
// land in the fig17 manifest entry.
func Fig17Zen4PPW(ctx *Context) (*Table, error) {
	cfg := core.Zen4Config()
	cfg.Energy = ctx.Cfg.Energy
	return ctx.withConfig(cfg).ppwTable("fig17", "PPW gain over LRU, Zen4 configuration (Fig. 17)",
		[]string{"srrip", "ship++", "ghrp", "mockingjay", "thermometer", "furbys"},
		"Paper: FURBYS gains 2.41% PPW on Zen4, still ahead of every other policy.")
}
