package experiments

import (
	"uopsim/internal/offline"
	"uopsim/internal/telemetry"
)

// memoPlans is the offline.PlanCache a Context hands to its runs. It keeps
// every keep-plan solved or loaded under the Context in ctxCaches.plans,
// keyed by offline.PlanKey (geometry, cost model, fold flag, segment limit
// and the PW sequence), in front of the on-disk plan store (nil without
// Artifacts). A memo miss falls through to the store; a solved plan is
// written to both. The figures that share a plan then solve it once per
// Context: fig8's FLACK replay and FURBYS profile, fig10's FOO variants,
// and sec3b's real-geometry FLACK classification. A plan is read-only
// once solved, so every replay shares one *offline.Decisions, and offline's
// computePlan never stores a plan solved under a cancelled context, so an
// incomplete plan never reaches the memo.
//
// There is no singleflight: at Workers > 1, two cells that reach a new key
// together may both solve it. The solve is a pure function of its key, so
// the second result is identical and outputs stay byte-identical; only the
// time of one solve is lost.
type memoPlans struct {
	cc      *ctxCaches
	store   offline.PlanCache
	metrics *telemetry.Registry
	tally   *memoTally
}

// plans returns the context's keep-plan cache: the per-Context memo, backed
// by the artifact store when one is attached.
func (c *Context) plans() offline.PlanCache {
	return memoPlans{cc: c.caches, store: offline.NewPlanStore(c.Artifacts), metrics: c.Telemetry.Metrics, tally: &c.sched.memo.plans}
}

// Load implements offline.PlanCache.
func (p memoPlans) Load(key string) (*offline.Decisions, bool) {
	p.cc.mu.Lock()
	d, ok := p.cc.plans[key]
	p.cc.mu.Unlock()
	p.tally.note(!ok)
	if ok {
		if p.metrics != nil {
			p.metrics.Counter("plan_memo_hit_total").Inc()
		}
		return d, true
	}
	if p.metrics != nil {
		p.metrics.Counter("plan_memo_miss_total").Inc()
	}
	if p.store == nil {
		return nil, false
	}
	d, ok = p.store.Load(key)
	if ok {
		p.memoize(key, d)
	}
	return d, ok
}

// Store implements offline.PlanCache.
func (p memoPlans) Store(key string, d *offline.Decisions) {
	p.memoize(key, d)
	if p.store != nil {
		p.store.Store(key, d)
	}
}

func (p memoPlans) memoize(key string, d *offline.Decisions) {
	p.cc.mu.Lock()
	p.cc.plans[key] = d
	p.cc.mu.Unlock()
}
