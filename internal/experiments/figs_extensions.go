package experiments

import (
	"fmt"

	"uopsim/internal/core"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
)

// SensInclusion reproduces the paper's Section VII discussion: with a
// NON-inclusive micro-op cache, the IPC benefit of a better replacement
// policy grows substantially (paper: FURBYS 2.5% IPC vs 0.48% inclusive),
// because surviving L1i evictions effectively enlarges instruction storage.
func SensInclusion(ctx *Context) (*Table, error) {
	t := &Table{Name: "sens-inclusion", Title: "Inclusive vs non-inclusive micro-op cache (Section VII)",
		Columns: []string{"application", "inclusive: FURBYS IPC speedup", "non-inclusive: FURBYS IPC speedup", "non-inclusive: invalidations"}}
	type row struct {
		Inc, Non float64
		Inval    uint64
	}
	rows, err := appRows(ctx, func(app string) (row, error) {
		speedup := func(nonInclusive bool) (float64, uint64, error) {
			cfg := ctx.Cfg
			cfg.Frontend.NonInclusive = nonInclusive
			base, err := ctx.timing(app, cfg, "lru")
			if err != nil {
				return 0, 0, err
			}
			fu, err := ctx.timing(app, cfg, "furbys")
			if err != nil {
				return 0, 0, err
			}
			return fu.Frontend.IPC()/base.Frontend.IPC() - 1, fu.Frontend.UopCache.Invalidations, nil
		}
		inc, _, err := speedup(false)
		if err != nil {
			return row{}, err
		}
		non, inval, err := speedup(true)
		if err != nil {
			return row{}, err
		}
		return row{Inc: inc, Non: non, Inval: inval}, nil
	})
	if err != nil {
		return nil, err
	}
	var sumInc, sumNon float64
	for i, app := range ctx.AppList() {
		r := rows[i]
		sumInc += r.Inc
		sumNon += r.Non
		t.AddRow(Label(app), Pct(r.Inc), Pct(r.Non), Count(r.Inval))
	}
	n := float64(len(ctx.AppList()))
	t.AddRow(Label("MEAN"), Pct(sumInc/n), Pct(sumNon/n), Label(""))
	t.Notes = append(t.Notes, "Paper: non-inclusive FURBYS reaches 2.5% IPC speedup vs 0.48% inclusive; the non-inclusive design complicates self-modifying-code invalidation.")
	return t, nil
}

// SensInsertDelay sweeps the asynchronous-insertion delay: the value of
// FLACK's A feature (lazy eviction + late-insertion safeguard) should grow
// with the lookup/insertion skew. This is the ablation DESIGN.md calls out
// for the asynchrony model. Each delay point is one scheduler cell.
func SensInsertDelay(ctx *Context) (*Table, error) {
	t := &Table{Name: "sens-delay", Title: "Insertion-delay sensitivity: value of FLACK's asynchrony handling",
		Columns: []string{"insert delay (lookups)", "lru miss rate", "foo reduction", "foo+A reduction", "A benefit"}}
	app := ctx.AppList()[0]
	delays := []int{0, 1, 2, 3, 5, 8}
	labels := make([]string, len(delays))
	for i, d := range delays {
		labels[i] = fmt.Sprintf("delay=%d", d)
	}
	type point struct{ MissRate, RRaw, RA float64 }
	points, err := cells(ctx, labels, func(i int) (point, error) {
		_, pws, err := ctx.Trace(app, 0)
		if err != nil {
			return point{}, err
		}
		cfg := ctx.Cfg
		cfg.UopCache.InsertDelay = delays[i]
		// InsertDelay is excluded from the geometry signature (it affects
		// timing, not per-window attributes), so the context's prepared
		// trace and cached plans stay valid across the sweep.
		base, err := ctx.behavior(app, cfg, "lru", policy.FURBYSConfig{})
		if err != nil {
			return point{}, err
		}
		raw := offline.RunFOO(pws, cfg.UopCache, ctx.offlineOpts(app, 0, cfg.UopCache, offline.Options{Features: offline.Features{}}))
		withA := offline.RunFOO(pws, cfg.UopCache, ctx.offlineOpts(app, 0, cfg.UopCache, offline.Options{Features: offline.Features{Async: true}}))
		return point{MissRate: base.Stats.UopMissRate(),
			RRaw: core.MissReduction(base.Stats, raw.Stats),
			RA:   core.MissReduction(base.Stats, withA.Stats)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		t.AddRow(Count(delays[i]), Fixed(p.MissRate, 4), Pct(p.RRaw), Pct(p.RA), Pct(p.RA-p.RRaw))
	}
	t.Notes = append(t.Notes, "Raw FOO applies decisions at lookup time and degrades as insertions lag; the A feature recovers the loss (paper Section III-C/IV).")
	return t, nil
}

// SensSegmentLimit sweeps the FOO/FLACK flow-segmentation limit, the main
// fidelity/runtime knob of the offline solver (a DESIGN.md substitution for
// solving the whole-trace LP at once). Each limit is one scheduler cell.
func SensSegmentLimit(ctx *Context) (*Table, error) {
	t := &Table{Name: "sens-segment", Title: "FLACK plan quality vs flow segment limit",
		Columns: []string{"segment limit", "flack miss reduction vs LRU"}}
	app := ctx.AppList()[0]
	limits := []int{128, 512, 2048, offline.DefaultSegmentLimit}
	labels := make([]string, len(limits))
	for i, lim := range limits {
		labels[i] = fmt.Sprintf("limit=%d", lim)
	}
	reds, err := cells(ctx, labels, func(i int) (float64, error) {
		_, pws, err := ctx.Trace(app, 0)
		if err != nil {
			return 0, err
		}
		base, err := ctx.lruBaseline(app)
		if err != nil {
			return 0, err
		}
		res := offline.RunFLACK(pws, ctx.Cfg.UopCache, ctx.offlineOpts(app, 0, ctx.Cfg.UopCache, offline.Options{SegmentLimit: limits[i]}))
		return core.MissReduction(base, res.Stats), nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range reds {
		t.AddRow(Count(limits[i]), Pct(r))
	}
	t.Notes = append(t.Notes, "Longer segments let keep decisions look further ahead; quality saturates well before whole-trace solving.")
	return t, nil
}

// SensObjective compares FOO's two published objectives (OHR, BHR) with
// FLACK's variable-cost objective under identical asynchrony handling — a
// direct test of the paper's Section III-D argument that neither OHR nor
// BHR matches the micro-op cache's disproportionate miss costs.
func SensObjective(ctx *Context) (*Table, error) {
	t := &Table{Name: "sens-objective", Title: "Flow objective: OHR vs BHR vs variable cost (Section III-D)",
		Columns: []string{"application", "ohr", "bhr", "variable cost"}}
	rows, err := appRows(ctx, func(app string) ([]float64, error) {
		_, pws, err := ctx.Trace(app, 0)
		if err != nil {
			return nil, err
		}
		base, err := ctx.lruBaseline(app)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, 3)
		o := ctx.offlineOpts(app, 0, ctx.Cfg.UopCache, offline.Options{Features: offline.FLACKFeatures()})
		for i, model := range []offline.CostModel{offline.CostOHR, offline.CostBHR, offline.CostVC} {
			dec := offline.ComputeDecisionsCached(o.Ctx, pws, o.Prepared, ctx.Cfg.UopCache, model, true, 0, o.Workers, o.Plans)
			res := offline.ReplayPlan(pws, ctx.Cfg.UopCache, dec, o)
			vals[i] = core.MissReduction(base, res.Stats)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	t.addAppPcts(ctx.AppList(), rows)
	t.Notes = append(t.Notes, "The variable-cost objective (FLACK's VC) should dominate: OHR ignores both size and cost, BHR tracks entries but not micro-ops.")
	return t, nil
}
