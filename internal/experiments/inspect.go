package experiments

import (
	"fmt"

	"uopsim/internal/core"
	"uopsim/internal/inspect"
	"uopsim/internal/offline"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
)

// AttributionOptions configures an eviction-attribution campaign
// (RunAttribution).
type AttributionOptions struct {
	// Policies names the replacement policies to attribute (behaviour-mode
	// names accepted by core.RunBehaviorByName, online or offline).
	Policies []string
	// Window is the premature-eviction window in trace positions: a victim
	// re-referenced within Window lookups of its eviction is classified
	// premature. <= 0 selects inspect.DefaultWindow.
	Window int
}

// RunAttribution replays every (app, policy) pair with a fresh metrics
// registry and an eviction collector attached, classifies each eviction as
// justified, premature, or FLACK-divergent, and returns one attribution row
// per pair (app-major, policy-minor order — deterministic at any worker
// count).
//
// Every row is reconciled before it is returned: the classified eviction
// count must equal both the run's Stats.Evictions and the run's
// uopcache_evictions_total counter, so the attribution table and the
// telemetry stream can never silently disagree. A mismatch is a bug in the
// introspection layer and comes back as an error.
//
// Aggregate counters (inspect_evictions_total, inspect_justified_total,
// inspect_premature_total, inspect_divergent_total) are published to the
// context's telemetry registry, and the live dashboard's attribution block
// updates as each pair completes.
func RunAttribution(c *Context, opts AttributionOptions) ([]inspect.Attribution, error) {
	if len(opts.Policies) == 0 {
		return nil, fmt.Errorf("attribution: no policies given")
	}
	window := opts.Window
	if window <= 0 {
		window = inspect.DefaultWindow
	}
	apps := c.AppList()
	sp := c.Spans.Begin("attribution", "attribution")
	defer sp.End()

	var rows []inspect.Attribution
	for _, app := range apps {
		if err := c.ctx().Err(); err != nil {
			return rows, err
		}
		appSp := c.Spans.Begin("attribution", "attribute/"+app)
		_, pws, err := c.Trace(app, 0)
		if err != nil {
			appSp.End()
			return rows, fmt.Errorf("attribution: trace %s: %w", app, err)
		}
		// One FLACK keep-plan per app, shared by every policy's divergence
		// check: the plan depends only on the trace and the geometry.
		pt, _ := c.Prepared(app, 0, c.Cfg.UopCache)
		dec := offline.ComputeDecisionsCached(c.ctx(), pws, pt, c.Cfg.UopCache, offline.CostVC, true, 0, c.Workers, c.plans())
		if err := c.ctx().Err(); err != nil {
			appSp.End()
			return rows, err
		}
		keep := dec.Keep
		for _, pol := range opts.Policies {
			if err := c.ctx().Err(); err != nil {
				appSp.End()
				return rows, err
			}
			row, err := attributeOne(c, app, pol, pws, pt, keep, window)
			if err != nil {
				appSp.End()
				return rows, err
			}
			rows = append(rows, row)
			publishAttribution(c, row)
		}
		appSp.End()
	}
	return rows, nil
}

// attributeOne replays one (app, policy) pair with introspection attached
// and reconciles the classification against the run's eviction counters.
// The replay reads keep-plans through the context's plan cache, so the
// FLACK plan RunAttribution just solved is not solved again, and once the
// row reconciles the run's counters are added to the context's registry.
func attributeOne(c *Context, app, pol string, pws []trace.PW, pt *trace.PreparedTrace, keep []bool, window int) (inspect.Attribution, error) {
	// A fresh registry scoped to this single run makes the reconciliation
	// exact: uopcache_evictions_total here counts THIS replay's evictions
	// and nothing else.
	reg := telemetry.NewRegistry()
	col := inspect.NewCollector()
	col.Next = c.Telemetry.Events
	res, err := core.RunBehaviorByName(pol, pws, c.Cfg, core.BehaviorOptions{
		Ctx:       c.ctx(),
		Telemetry: core.Telemetry{Metrics: reg, Events: col},
		Workers:   c.Workers,
		Prepared:  pt,
		Plans:     c.plans(),
	})
	if err != nil {
		return inspect.Attribution{}, fmt.Errorf("attribution: %s/%s: %w", app, pol, err)
	}
	row := inspect.Attribute(col.Records(), pws, inspect.Options{Window: window, Keep: keep})
	row.App, row.Policy = app, pol
	counter := reg.Counter("uopcache_evictions_total").Value()
	if row.Total != res.Stats.Evictions || row.Total != counter {
		return row, fmt.Errorf(
			"attribution: %s/%s: classified %d evictions but Stats.Evictions=%d, uopcache_evictions_total=%d",
			app, pol, row.Total, res.Stats.Evictions, counter)
	}
	if m := c.Telemetry.Metrics; m != nil {
		m.AddCounters(reg)
	}
	return row, nil
}

// publishAttribution folds one completed row into the context registry's
// inspect_* counters and the live dashboard's attribution block.
func publishAttribution(c *Context, row inspect.Attribution) {
	if m := c.Telemetry.Metrics; m != nil {
		m.Counter("inspect_evictions_total").Add(row.Total)
		m.Counter("inspect_justified_total").Add(row.Justified)
		m.Counter("inspect_premature_total").Add(row.Premature)
		m.Counter("inspect_divergent_total").Add(row.Divergent)
	}
	c.statusUpdate(func(s *statusCounters) {
		if s.attribution == nil {
			s.attribution = &AttributionStatus{}
		}
		s.attribution.Evictions += row.Total
		s.attribution.Justified += row.Justified
		s.attribution.Premature += row.Premature
		s.attribution.Divergent += row.Divergent
	})
}
