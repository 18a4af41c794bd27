package experiments

import (
	"fmt"

	"uopsim/internal/core"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/stats"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// behavior runs (memoized) a behaviour-mode replay of app's input-0 trace
// under cfg for a named policy, online or offline (belady, foo, flack). It
// is the package's one behaviour entry for the trace's plain replay: runs
// that several figures share — LRU, the baseline of every miss reduction;
// FURBYS at the context geometry behind figs. 8, 12, 18 and 21; FLACK
// behind figs. 8 and 10 — replay once per Context, and concurrent cells
// needing the same run share one flight.
//
// fcfg tunes FURBYS; a zero WeightBits selects DefaultFURBYSConfig, as
// core.NewPolicy does, so the zero value and the defaults share an entry.
// The key covers the app, the Context's block count and input, the policy
// name, the whole cfg and fcfg (runKey). Profile-guided policies use the
// context's FLACK profile, as in Context.timing. A memo hit replays
// nothing, so it streams no uopcache_* events and moves no uopcache_*
// metrics; it counts one behavior_memo_hit_total, a replay one
// behavior_memo_miss_total.
func (c *Context) behavior(app string, cfg core.Config, name string, fcfg policy.FURBYSConfig) (core.BehaviorResult, error) {
	if fcfg.WeightBits == 0 {
		fcfg = policy.DefaultFURBYSConfig()
	}
	key := runKey{app: app, blocks: c.Blocks, name: name, cfg: cfg, fcfg: fcfg}
	replayed := false
	res, err := once(c, c.caches.behaviors, key, func() (core.BehaviorResult, error) {
		replayed = true
		_, pws, err := c.Trace(app, 0)
		if err != nil {
			return core.BehaviorResult{}, err
		}
		opts := c.runOpts(app, 0, cfg.UopCache)
		if name != "thermometer" && name != "furbys" {
			return core.RunBehaviorByName(name, pws, cfg, opts)
		}
		prof, err := c.Profile(app, 0, profiles.SourceFLACK)
		if err != nil {
			return core.BehaviorResult{}, err
		}
		pol, err := core.NewPolicy(name, prof, cfg.UopCache, fcfg)
		if err != nil {
			return core.BehaviorResult{}, err
		}
		return core.RunBehavior(pws, cfg, pol, opts), nil
	})
	c.sched.memo.behaviors.note(replayed)
	if m := c.Telemetry.Metrics; m != nil {
		if replayed {
			m.Counter("behavior_memo_miss_total").Inc()
		} else {
			m.Counter("behavior_memo_hit_total").Inc()
		}
	}
	return res, err
}

// lruBaseline returns the Stats of the LRU replay at the context config,
// the baseline of every miss reduction.
func (c *Context) lruBaseline(app string) (uopcache.Stats, error) {
	res, err := c.behavior(app, c.Cfg, "lru", policy.FURBYSConfig{})
	return res.Stats, err
}

// Table1 dumps the simulation parameters (paper Table I).
func Table1(ctx *Context) (*Table, error) {
	t := &Table{Name: "tab1", Title: "Simulation parameters (Table I)", Columns: []string{"parameter", "value"}}
	cfg := ctx.Cfg
	t.AddRow(Label("CPU"), Label(fmt.Sprintf("3.2GHz, %d-wide OoO, %d-entry ROB", cfg.Backend.Width, cfg.Backend.ROB)))
	t.AddRow(Label("Decoder"), Label(fmt.Sprintf("%d-wide decoder, %d-cycle latency", cfg.Frontend.DecodeWidth, cfg.Frontend.DecodeLatency)))
	t.AddRow(Label("Branch predictor"), Label(fmt.Sprintf("%d-entry %d-way BTB, %d-entry RAS, TAGE-lite, %d-entry IBTB",
		cfg.Branch.BTBEntries, cfg.Branch.BTBWays, cfg.Branch.RASEntries, cfg.Branch.IBTBEntries)))
	t.AddRow(Label("Micro-op cache"), Label(fmt.Sprintf("%d-entry, %d-way, %d micro-ops/entry, inclusive with L1i, %d-cycle switch delay",
		cfg.UopCache.Entries, cfg.UopCache.Ways, cfg.UopCache.UopsPerEntry, cfg.Frontend.SwitchPenalty)))
	t.AddRow(Label("L1i"), Label(fmt.Sprintf("%dB-line, %dKiB, %d-way, %d-cycle, LRU",
		cfg.L1I.LineBytes, cfg.L1I.SizeBytes>>10, cfg.L1I.Ways, cfg.L1I.LatencyCycles)))
	t.AddRow(Label("L1d"), Label(fmt.Sprintf("%dB-line, %dKiB, %d-way, %d-cycle, LRU",
		cfg.Backend.L1D.LineBytes, cfg.Backend.L1D.SizeBytes>>10, cfg.Backend.L1D.Ways, cfg.Backend.L1D.LatencyCycles)))
	t.AddRow(Label("L2"), Label(fmt.Sprintf("%dB-line, %dKiB, %d-way, %d-cycle, LRU",
		cfg.Backend.L2.LineBytes, cfg.Backend.L2.SizeBytes>>10, cfg.Backend.L2.Ways, cfg.Backend.L2Latency)))
	t.AddRow(Label("DRAM"), Label(fmt.Sprintf("%d-cycle latency", cfg.Backend.DRAMLatency)))
	return t, nil
}

// Table2 lists the applications with paper-reported and measured MPKI.
func Table2(ctx *Context) (*Table, error) {
	t := &Table{Name: "tab2", Title: "Data center applications (Table II)",
		Columns: []string{"application", "description", "paper MPKI", "measured MPKI", "static PWs", "overlapping PWs", "avg uops/PW"}}
	type row struct {
		Desc              string
		Target, MPKI, Avg float64
		Distinct          int
		Overlap           float64
	}
	rows, err := appRows(ctx, func(app string) (row, error) {
		spec, err := workload.Get(app)
		if err != nil {
			return row{}, err
		}
		_, pws, err := ctx.Trace(app, 0)
		if err != nil {
			return row{}, err
		}
		res, err := ctx.timing(app, ctx.Cfg, "lru")
		if err != nil {
			return row{}, err
		}
		an := trace.Analyze(pws, ctx.Cfg.UopCache.UopsPerEntry)
		return row{Desc: spec.Description, Target: spec.TargetMPKI, MPKI: res.Frontend.Branch.MPKI(),
			Distinct: an.DistinctStarts, Overlap: an.OverlapFrac(), Avg: an.AvgUops}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, app := range ctx.AppList() {
		r := rows[i]
		t.AddRow(Label(app), Label(r.Desc), Fixed(r.Target, 2), Fixed(r.MPKI, 2), Count(r.Distinct), Pct(r.Overlap), Fixed(r.Avg, 1))
	}
	t.Notes = append(t.Notes, "Measured MPKI comes from the TAGE-lite predictor on the synthetic traces; the paper's column is the calibration target.")
	return t, nil
}

// Sec3BMissClasses reproduces the Section III-B miss classification under
// LRU and under the near-optimal FLACK policy.
func Sec3BMissClasses(ctx *Context) (*Table, error) {
	t := &Table{Name: "sec3b", Title: "Miss classification: cold/capacity/conflict (Section III-B)",
		Columns: []string{"application", "policy", "cold", "capacity", "conflict", "total misses"}}
	type row struct {
		LRU, FLACK           [3]float64
		LRUTotal, FLACKTotal uint64
	}
	rows, err := appRows(ctx, func(app string) (row, error) {
		_, pws, err := ctx.Trace(app, 0)
		if err != nil {
			return row{}, err
		}
		// Classify replays the trace under the real and the fully
		// associative geometry; each gets the shared trace for its
		// geometry.
		lruCounter := func(pws []trace.PW, cfg uopcache.Config) uint64 {
			pt, _ := ctx.Prepared(app, 0, cfg)
			c := uopcache.New(cfg, policy.NewLRU())
			return uopcache.NewBehavior(c, nil, uopcache.PreparedFor(cfg, pws, pt)).Run().Misses
		}
		flackCounter := func(pws []trace.PW, cfg uopcache.Config) uint64 {
			pt, _ := ctx.Prepared(app, 0, cfg)
			return offline.RunFLACK(pws, cfg, offline.Options{Prepared: pt, Plans: ctx.plans()}).Stats.Misses
		}
		ml := stats.Classify(pws, ctx.Cfg.UopCache, lruCounter)
		mf := stats.Classify(pws, ctx.Cfg.UopCache, flackCounter)
		c1, c2, c3 := ml.Fractions()
		f1, f2, f3 := mf.Fractions()
		return row{LRU: [3]float64{c1, c2, c3}, FLACK: [3]float64{f1, f2, f3},
			LRUTotal: ml.Total, FLACKTotal: mf.Total}, nil
	})
	if err != nil {
		return nil, err
	}
	var lruTotals, flackTotals [3]float64
	for i, app := range ctx.AppList() {
		r := rows[i]
		for k := 0; k < 3; k++ {
			lruTotals[k] += r.LRU[k]
			flackTotals[k] += r.FLACK[k]
		}
		t.AddRow(Label(app), Label("lru"), Pct(r.LRU[0]), Pct(r.LRU[1]), Pct(r.LRU[2]), Count(r.LRUTotal))
		t.AddRow(Label(app), Label("flack"), Pct(r.FLACK[0]), Pct(r.FLACK[1]), Pct(r.FLACK[2]), Count(r.FLACKTotal))
	}
	n := float64(len(ctx.AppList()))
	t.AddRow(Label("MEAN"), Label("lru"), Pct(lruTotals[0]/n), Pct(lruTotals[1]/n), Pct(lruTotals[2]/n), Label(""))
	t.AddRow(Label("MEAN"), Label("flack"), Pct(flackTotals[0]/n), Pct(flackTotals[1]/n), Pct(flackTotals[2]/n), Label(""))
	t.Notes = append(t.Notes, "Paper: with LRU, 0.89% cold / 88.31% capacity / 10.8% conflict; near-optimal reduces capacity and conflict misses by 23.9% and 31.6%.")
	return t, nil
}

// Sec3EReuseDistances reproduces the reuse-distance comparison of Section
// III-E: micro-op cache PWs have far more scattered reuse than icache lines
// or BTB entries.
func Sec3EReuseDistances(ctx *Context) (*Table, error) {
	t := &Table{Name: "sec3e", Title: "Reuse distance spectrum (Section III-E)",
		Columns: []string{"application", "PW frac > 30", "icache-line frac > 30", "branch-PC frac > 30"}}
	rows, err := appRows(ctx, func(app string) ([]float64, error) {
		blocks, pws, err := ctx.Trace(app, 0)
		if err != nil {
			return nil, err
		}
		const maxB = 256
		hPW := stats.ReuseDistances(stats.PWKeys(pws), maxB)
		hLine := stats.ReuseDistances(stats.LineKeys(blocks), maxB)
		hBr := stats.ReuseDistances(stats.BranchKeys(blocks), maxB)
		return []float64{hPW.FracAbove(30), hLine.FracAbove(30), hBr.FracAbove(30)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.addAppPcts(ctx.AppList(), rows)
	t.Notes = append(t.Notes, "Paper: >20% of PWs, ~10% of icache lines and ~2% of BTB entries have reuse distance over 30.")
	return t, nil
}

// reductionTable renders a per-app × per-policy matrix of miss reductions
// vs LRU, apps as concurrent cells.
func (c *Context) reductionTable(name, title string, policyNames []string, notes ...string) (*Table, error) {
	rows, err := appRows(c, func(app string) ([]float64, error) {
		base, err := c.lruBaseline(app)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(policyNames))
		for i, name := range policyNames {
			res, err := c.behavior(app, c.Cfg, name, policy.FURBYSConfig{})
			if err != nil {
				return nil, err
			}
			vals[i] = core.MissReduction(base, res.Stats)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Title: title, Columns: append([]string{"application"}, policyNames...), Notes: notes}
	t.addAppPcts(c.AppList(), rows)
	return t, nil
}

// Fig5ExistingPolicies reproduces Fig. 5: existing online policies versus
// the FLACK bound.
func Fig5ExistingPolicies(ctx *Context) (*Table, error) {
	return ctx.reductionTable("fig5", "Miss reduction of existing policies vs LRU (Fig. 5)",
		[]string{"srrip", "ship++", "mockingjay", "ghrp", "thermometer", "flack"},
		"Paper: existing policies reach only a fraction of FLACK's 30.21% average reduction; GHRP best at ~31.5% of FLACK.")
}

// Fig8FURBYSMissReduction reproduces Fig. 8: FURBYS against everything.
func Fig8FURBYSMissReduction(ctx *Context) (*Table, error) {
	return ctx.reductionTable("fig8", "FURBYS miss reduction vs existing policies (Fig. 8)",
		[]string{"srrip", "ship++", "mockingjay", "ghrp", "thermometer", "furbys", "flack"},
		"Paper: FURBYS averages 14.34% (1.84x the best existing policy) and reaches 57.85% of FLACK.")
}

// Fig10FLACKAblation reproduces the ablation of Fig. 10 under a perfect
// icache: FOO, +A, +A+VC, FLACK, against Belady.
func Fig10FLACKAblation(ctx *Context) (*Table, error) {
	variants := []offline.Features{
		{},
		{Async: true},
		{Async: true, VarCost: true},
		offline.FLACKFeatures(),
	}
	cols := []string{"application", "belady"}
	for _, v := range variants {
		cols = append(cols, v.Label())
	}
	t := &Table{Name: "fig10", Title: "FLACK ablation vs Belady over LRU, perfect icache (Fig. 10)", Columns: cols}
	rows, err := appRows(ctx, func(app string) ([]float64, error) {
		_, pws, err := ctx.Trace(app, 0)
		if err != nil {
			return nil, err
		}
		base, err := ctx.lruBaseline(app)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, 0, len(variants)+1)
		bel := offline.RunBelady(pws, ctx.Cfg.UopCache, ctx.offlineOpts(app, 0, ctx.Cfg.UopCache, offline.Options{}))
		vals = append(vals, core.MissReduction(base, bel.Stats))
		for _, v := range variants {
			// FLACK is the same replay fig8 runs.
			if v == offline.FLACKFeatures() {
				res, err := ctx.behavior(app, ctx.Cfg, "flack", policy.FURBYSConfig{})
				if err != nil {
					return nil, err
				}
				vals = append(vals, core.MissReduction(base, res.Stats))
				continue
			}
			res := offline.RunFOO(pws, ctx.Cfg.UopCache, ctx.offlineOpts(app, 0, ctx.Cfg.UopCache, offline.Options{Features: v}))
			vals = append(vals, core.MissReduction(base, res.Stats))
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	t.addAppPcts(ctx.AppList(), rows)
	t.Notes = append(t.Notes, "Paper: raw FOO can be worse than LRU; each feature adds gains; FLACK beats Belady by 4.46% on average.")
	return t, nil
}

// Fig15ProfileSources reproduces Fig. 15: FURBYS trained on Belady, FOO and
// FLACK decision traces.
func Fig15ProfileSources(ctx *Context) (*Table, error) {
	srcs := []profiles.Source{profiles.SourceBelady, profiles.SourceFOO, profiles.SourceFLACK}
	t := &Table{Name: "fig15", Title: "FURBYS miss reduction by offline profile source (Fig. 15)",
		Columns: []string{"application", "belady-profile", "foo-profile", "flack-profile"}}
	rows, err := appRows(ctx, func(app string) ([]float64, error) {
		_, pws, err := ctx.Trace(app, 0)
		if err != nil {
			return nil, err
		}
		base, err := ctx.lruBaseline(app)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(srcs))
		for i, src := range srcs {
			prof, err := ctx.Profile(app, 0, src)
			if err != nil {
				return nil, err
			}
			pol, err := core.NewPolicy("furbys", prof, ctx.Cfg.UopCache, policy.FURBYSConfig{})
			if err != nil {
				return nil, err
			}
			res := core.RunBehavior(pws, ctx.Cfg, pol, ctx.runOpts(app, 0, ctx.Cfg.UopCache))
			vals[i] = core.MissReduction(base, res.Stats)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	t.addAppPcts(ctx.AppList(), rows)
	t.Notes = append(t.Notes, "Paper: the FLACK profile yields ~3.47% more reduction than Belady's and ~4.39% more than FOO's.")
	return t, nil
}

// Fig16SizeAssocSweep reproduces Fig. 16: FURBYS vs GHRP across cache sizes
// and associativities. Each valid (entries, ways) point is one scheduler
// cell; the geometry differs from the context's, so profiles are collected
// directly rather than through the (geometry-keyed) cache.
func Fig16SizeAssocSweep(ctx *Context) (*Table, error) {
	t := &Table{Name: "fig16", Title: "Miss reduction across sizes and associativities: FURBYS vs GHRP (Fig. 16)",
		Columns: []string{"entries", "ways", "furbys mean", "ghrp mean"}}
	type combo struct{ entries, ways int }
	var combos []combo
	var labels []string
	for _, entries := range []int{256, 512, 1024, 2048} {
		for _, ways := range []int{4, 8, 16} {
			cfg := ctx.Cfg
			cfg.UopCache.Entries = entries
			cfg.UopCache.Ways = ways
			if cfg.UopCache.Validate() != nil {
				continue
			}
			combos = append(combos, combo{entries, ways})
			labels = append(labels, fmt.Sprintf("%dx%d", entries, ways))
		}
	}
	type point struct{ Fu, Gh float64 }
	rows, err := cells(ctx, labels, func(i int) (point, error) {
		cfg := ctx.Cfg
		cfg.UopCache.Entries = combos[i].entries
		cfg.UopCache.Ways = combos[i].ways
		var fu, gh []float64
		for _, app := range ctx.AppList() {
			_, pws, err := ctx.Trace(app, 0)
			if err != nil {
				return point{}, err
			}
			opts := ctx.runOpts(app, 0, cfg.UopCache)
			base := core.RunBehavior(pws, cfg, policy.NewLRU(), opts)
			prof := collectProfile(pws, cfg.UopCache, profiles.SourceFLACK, profiles.CollectOptions{
				Metrics: ctx.Telemetry.Metrics, Events: ctx.Telemetry.Events,
				Prepared: opts.Prepared, Plans: opts.Plans, Workers: opts.Workers,
			})
			pol, err := core.NewPolicy("furbys", prof, cfg.UopCache, policy.FURBYSConfig{})
			if err != nil {
				return point{}, err
			}
			fu = append(fu, core.MissReduction(base.Stats, core.RunBehavior(pws, cfg, pol, opts).Stats))
			gh = append(gh, core.MissReduction(base.Stats, core.RunBehavior(pws, cfg, policy.NewGHRP(), opts).Stats))
		}
		return point{Fu: mean(fu), Gh: mean(gh)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.AddRow(Count(combos[i].entries), Count(combos[i].ways), Pct(r.Fu), Pct(r.Gh))
	}
	t.Notes = append(t.Notes, "Paper: FURBYS outperforms GHRP in every configuration; the gap narrows as capacity grows.")
	return t, nil
}

// Fig18CrossValidation reproduces Fig. 18: profiles from training inputs
// applied to a held-out test input.
func Fig18CrossValidation(ctx *Context) (*Table, error) {
	t := &Table{Name: "fig18", Title: "Cross-validation: train-input profile vs same-input profile (Fig. 18)",
		Columns: []string{"application", "same-input", "cross-input", "retained"}}
	type row struct{ Same, Cross float64 }
	rows, err := appRows(ctx, func(app string) (row, error) {
		_, testPWs, err := ctx.Trace(app, 0)
		if err != nil {
			return row{}, err
		}
		base, err := ctx.lruBaseline(app)
		if err != nil {
			return row{}, err
		}
		// Same-input: profile from the test trace itself, the FURBYS
		// replay fig8 runs.
		sameRes, err := ctx.behavior(app, ctx.Cfg, "furbys", policy.FURBYSConfig{})
		if err != nil {
			return row{}, err
		}
		same := core.MissReduction(base, sameRes.Stats)
		// Cross-input: merge profiles of two other inputs.
		p1, err := ctx.Profile(app, 1, profiles.SourceFLACK)
		if err != nil {
			return row{}, err
		}
		p2, err := ctx.Profile(app, 2, profiles.SourceFLACK)
		if err != nil {
			return row{}, err
		}
		crossProf := profiles.Merge(p1, p2)

		pol, err := core.NewPolicy("furbys", crossProf, ctx.Cfg.UopCache, policy.FURBYSConfig{})
		if err != nil {
			return row{}, err
		}
		crossRes := core.RunBehavior(testPWs, ctx.Cfg, pol, ctx.runOpts(app, 0, ctx.Cfg.UopCache))
		return row{Same: same, Cross: core.MissReduction(base, crossRes.Stats)}, nil
	})
	if err != nil {
		return nil, err
	}
	var sumSame, sumCross float64
	for i, app := range ctx.AppList() {
		r := rows[i]
		sumSame += r.Same
		sumCross += r.Cross
		ret := Label("n/a")
		if r.Same > 0 {
			ret = Pct(r.Cross / r.Same)
		}
		t.AddRow(Label(app), Pct(r.Same), Pct(r.Cross), ret)
	}
	n := float64(len(ctx.AppList()))
	retained := 0.0
	if sumSame != 0 {
		retained = sumCross / sumSame
	}
	t.AddRow(Label("MEAN"), Pct(sumSame/n), Pct(sumCross/n), Pct(retained))
	t.Notes = append(t.Notes, "Paper: cross-input profiles retain 94.34% of the same-input reduction (13.51% vs LRU).")
	return t, nil
}

// Fig19WeightBits sweeps the number of weight-group bits (Fig. 19); each
// bit count is one scheduler cell.
func Fig19WeightBits(ctx *Context) (*Table, error) {
	t := &Table{Name: "fig19", Title: "Miss reduction vs number of weight bits (Fig. 19)",
		Columns: []string{"bits", "groups", "mean reduction"}}
	const maxBits = 8
	labels := make([]string, maxBits)
	for i := range labels {
		labels[i] = fmt.Sprintf("bits=%d", i+1)
	}
	rows, err := cells(ctx, labels, func(i int) (float64, error) {
		bits := i + 1
		var vals []float64
		for _, app := range ctx.AppList() {
			base, err := ctx.lruBaseline(app)
			if err != nil {
				return 0, err
			}
			fcfg := policy.DefaultFURBYSConfig()
			fcfg.WeightBits = bits
			res, err := ctx.behavior(app, ctx.Cfg, "furbys", fcfg)
			if err != nil {
				return 0, err
			}
			vals = append(vals, core.MissReduction(base, res.Stats))
		}
		return mean(vals), nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		bits := i + 1
		t.AddRow(Count(bits), Count(1<<bits), Pct(r))
	}
	t.Notes = append(t.Notes, "Paper: 3 bits (8 groups) balances reduction against hardware overhead.")
	return t, nil
}

// Fig20DetectorDepth sweeps the local miss-pitfall detector depth (Fig. 20);
// each depth is one scheduler cell.
func Fig20DetectorDepth(ctx *Context) (*Table, error) {
	t := &Table{Name: "fig20", Title: "Miss reduction vs pitfall detector depth (Fig. 20)",
		Columns: []string{"depth", "mean reduction"}}
	const maxDepth = 4
	labels := make([]string, maxDepth+1)
	for i := range labels {
		labels[i] = fmt.Sprintf("depth=%d", i)
	}
	rows, err := cells(ctx, labels, func(depth int) (float64, error) {
		var vals []float64
		for _, app := range ctx.AppList() {
			base, err := ctx.lruBaseline(app)
			if err != nil {
				return 0, err
			}
			fcfg := policy.DefaultFURBYSConfig()
			fcfg.DetectorDepth = depth
			res, err := ctx.behavior(app, ctx.Cfg, "furbys", fcfg)
			if err != nil {
				return 0, err
			}
			vals = append(vals, core.MissReduction(base, res.Stats))
		}
		return mean(vals), nil
	})
	if err != nil {
		return nil, err
	}
	for depth, r := range rows {
		t.AddRow(Count(depth), Pct(r))
	}
	t.Notes = append(t.Notes, "Paper: depth 2 gives the best miss reduction.")
	return t, nil
}

// Fig21Bypass compares FURBYS with bypassing on and off (Fig. 21).
func Fig21Bypass(ctx *Context) (*Table, error) {
	t := &Table{Name: "fig21", Title: "FURBYS bypass mechanism on/off (Fig. 21)",
		Columns: []string{"application", "bypass off", "bypass on", "bypassed insertions"}}
	type row struct{ Off, On, ByFrac float64 }
	rows, err := appRows(ctx, func(app string) (row, error) {
		base, err := ctx.lruBaseline(app)
		if err != nil {
			return row{}, err
		}
		offCfg := policy.DefaultFURBYSConfig()
		offCfg.BypassEnabled = false
		resOff, err := ctx.behavior(app, ctx.Cfg, "furbys", offCfg)
		if err != nil {
			return row{}, err
		}
		rOff := core.MissReduction(base, resOff.Stats)
		resOn, err := ctx.behavior(app, ctx.Cfg, "furbys", policy.DefaultFURBYSConfig())
		if err != nil {
			return row{}, err
		}
		rOn := core.MissReduction(base, resOn.Stats)
		byFrac := 0.0
		if resOn.FURBYS != nil && resOn.FURBYS.InsertAttempts > 0 {
			byFrac = float64(resOn.FURBYS.Bypasses) / float64(resOn.FURBYS.InsertAttempts)
		}
		return row{Off: rOff, On: rOn, ByFrac: byFrac}, nil
	})
	if err != nil {
		return nil, err
	}
	var sumOff, sumOn float64
	for i, app := range ctx.AppList() {
		r := rows[i]
		sumOff += r.Off
		sumOn += r.On
		t.AddRow(Label(app), Pct(r.Off), Pct(r.On), Pct(r.ByFrac))
	}
	n := float64(len(ctx.AppList()))
	t.AddRow(Label("MEAN"), Pct(sumOff/n), Pct(sumOn/n), Label(""))
	t.Notes = append(t.Notes, "Paper: bypassing adds 4.33% more miss reduction and bypasses ~30% of insertions.")
	return t, nil
}

// Fig22Hotness reproduces the hot/warm/cold PW analysis on Kafka (Fig. 22);
// each policy's recorded replay is one scheduler cell.
func Fig22Hotness(ctx *Context) (*Table, error) {
	app := "kafka"
	names := []string{"lru", "ghrp", "furbys", "flack"}
	t := &Table{Name: "fig22", Title: "Hit rate by PW popularity decile on Kafka (Fig. 22)",
		Columns: append([]string{"decile"}, names...)}
	rows, err := cells(ctx, names, func(i int) ([10]stats.DecileStat, error) {
		_, pws, err := ctx.Trace(app, 0)
		if err != nil {
			return [10]stats.DecileStat{}, err
		}
		opts := ctx.runOpts(app, 0, ctx.Cfg.UopCache)
		opts.RecordPerLookup = true
		res, err := core.RunBehaviorByName(names[i], pws, ctx.Cfg, opts)
		if err != nil {
			return [10]stats.DecileStat{}, err
		}
		return stats.HotnessDeciles(pws, res.PerLookup), nil
	})
	if err != nil {
		return nil, err
	}
	for d := 0; d < 10; d++ {
		row := []Cell{Label(fmt.Sprintf("%d-%d%%", d*10, (d+1)*10))}
		for i := range names {
			row = append(row, Pct(rows[i][d].HitRate()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "Paper: all policies handle hot PWs (<1% apart); FURBYS wins on warm PWs; the FLACK gap concentrates in cold PWs.")
	return t, nil
}

// CoverageStats reports FURBYS decision provenance (Section VI-C).
func CoverageStats(ctx *Context) (*Table, error) {
	t := &Table{Name: "coverage", Title: "FURBYS victim-selection coverage and bypass rate (Section VI-C)",
		Columns: []string{"application", "furbys-selected victims", "srrip fallback", "bypassed insertions"}}
	type row struct {
		OK      bool
		Cov, By float64
	}
	rows, err := appRows(ctx, func(app string) (row, error) {
		res, err := ctx.behavior(app, ctx.Cfg, "furbys", policy.FURBYSConfig{})
		if err != nil {
			return row{}, err
		}
		if res.FURBYS == nil {
			return row{}, nil
		}
		byFrac := 0.0
		if res.FURBYS.InsertAttempts > 0 {
			byFrac = float64(res.FURBYS.Bypasses) / float64(res.FURBYS.InsertAttempts)
		}
		return row{OK: true, Cov: res.FURBYS.VictimCoverage(), By: byFrac}, nil
	})
	if err != nil {
		return nil, err
	}
	var sumCov, sumBy float64
	for i, app := range ctx.AppList() {
		r := rows[i]
		if !r.OK {
			continue
		}
		sumCov += r.Cov
		sumBy += r.By
		t.AddRow(Label(app), Pct(r.Cov), Pct(1-r.Cov), Pct(r.By))
	}
	n := float64(len(ctx.AppList()))
	t.AddRow(Label("MEAN"), Pct(sumCov/n), Pct(1-sumCov/n), Pct(sumBy/n))
	t.Notes = append(t.Notes, "Paper: FURBYS selects the victim 88.68% of the time; ~30% of insertions are bypassed.")
	return t, nil
}
