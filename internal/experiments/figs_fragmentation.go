package experiments

import (
	"uopsim/internal/core"
	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// SensFragmentation quantifies the fragmentation headroom the paper's
// Section VIII points at (CLASP and compaction, Kotra & Kalamatianos):
// cross-line windows (CLASP) reduce the number of line-boundary window
// cuts, and idealized entry compaction removes internal fragmentation
// entirely. Both are complementary to replacement policy — the experiment
// runs all four combinations under LRU. Variants stay serial (each needs
// the baseline's per-app miss rates); within a variant the apps run as
// concurrent cells.
func SensFragmentation(ctx *Context) (*Table, error) {
	t := &Table{Name: "sens-fragmentation",
		Title:   "Fragmentation attack: CLASP cross-line windows and idealized compaction (Section VIII)",
		Columns: []string{"configuration", "mean uop miss rate", "mean utilization", "mean miss reduction vs baseline"}}
	type variant struct {
		label      string
		crossLine  bool
		compaction bool
	}
	variants := []variant{
		{"baseline lru", false, false},
		{"clasp", true, false},
		{"compaction", false, true},
		{"clasp+compaction", true, true},
	}
	type cell struct{ Rate, Util float64 }
	baseRates := map[string]float64{}
	for _, v := range variants {
		rows, err := appRows(ctx, func(app string) (cell, error) {
			cfg := ctx.Cfg
			cfg.UopCache.Compaction = v.compaction
			var res core.BehaviorResult
			if v.crossLine {
				// CLASP windows are formed here from the context's
				// blocks, so the cell prepares and shares its own trace.
				blocks, _, err := ctx.Trace(app, 0)
				if err != nil {
					return cell{}, err
				}
				former := &trace.Former{MaxUops: trace.DefaultMaxUops, CrossLine: true, MaxLines: 2}
				pws := trace.FormPWsWith(blocks, former)
				res = core.RunBehavior(pws, cfg, policy.NewLRU(), core.BehaviorOptions{
					Ctx: ctx.Ctx, Telemetry: ctx.Telemetry, Workers: ctx.Workers,
					Prepared: uopcache.Prepare(cfg.UopCache, pws),
				})
			} else {
				var err error
				res, err = ctx.behavior(app, cfg, "lru", policy.FURBYSConfig{})
				if err != nil {
					return cell{}, err
				}
			}
			return cell{Rate: res.Stats.UopMissRate(), Util: res.Utilization}, nil
		})
		if err != nil {
			return nil, err
		}
		var rates, utils, reds []float64
		for i, app := range ctx.AppList() {
			r := rows[i]
			rates = append(rates, r.Rate)
			utils = append(utils, r.Util)
			if v.label == "baseline lru" {
				baseRates[app] = r.Rate
			}
			if br := baseRates[app]; br > 0 {
				reds = append(reds, (br-r.Rate)/br)
			}
		}
		t.AddRow(Label(v.label), Fixed(mean(rates), 4), Fixed(mean(utils), 4), Pct(mean(reds)))
	}
	t.Notes = append(t.Notes,
		"Compaction is the idealized perfect-packing bound (utilization 1.0) and delivers a large miss reduction — the headroom Kotra & Kalamatianos's realizable designs chase.",
		"Our CLASP-lite merges windows across one line boundary but does NOT model mid-window entry tags, so lookups targeting the absorbed second line miss entirely; utilization improves while misses worsen. The full CLASP design needs the intermediate-entry mechanism to win — a useful negative result for naive cross-line placement.")
	return t, nil
}
