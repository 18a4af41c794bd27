package core_test

import (
	"math"
	"sync"
	"testing"

	"uopsim/internal/cache"
	"uopsim/internal/core"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// eventLog records a cache's decision trace in order.
type eventLog struct{ events []telemetry.Event }

func (l *eventLog) Emit(e telemetry.Event) { l.events = append(l.events, e) }

// memPlans is an in-memory plan cache, so the bound run and the reference
// replay enforce one solved plan.
type memPlans struct {
	mu sync.Mutex
	m  map[string]*offline.Decisions
}

func (p *memPlans) Load(key string) (*offline.Decisions, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.m[key]
	return d, ok
}

func (p *memPlans) Store(key string, d *offline.Decisions) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.m[key] = d
}

// addrReplay is the reference for a bound uopcache.Behavior: it drives the
// same kind of cache, policy and L1i through the address-keyed entry points
// timing mode uses — Complete, Lookup and Schedule on the lookup clock — so
// every resident is found by a key-column scan. keep, when non-nil, is an
// offline plan whose lookup-time decisions it applies under feat, as the
// offline replay does.
func addrReplay(c *uopcache.Cache, ic *cache.Cache, pws []trace.PW, delay int, keep []bool, feat offline.Features) []uopcache.ProbeResult {
	if ic != nil {
		c.MakeInclusive(ic)
	}
	per := make([]uopcache.ProbeResult, len(pws))
	for i, pw := range pws {
		c.Complete(c.Clock() + 1)
		if ic != nil {
			first, last := pw.Lines()
			for l := first; l <= last; l += trace.LineSize {
				ic.Access(l)
			}
		}
		per[i] = c.Lookup(pw)
		if per[i].MissUops > 0 {
			c.Schedule(pw, c.Clock()+uint64(delay))
		}
		if keep != nil && !keep[i] {
			if !feat.Async {
				c.EvictKey(pw.Start)
				c.CancelInFlight(pw.Start)
			} else if !feat.SelBypass {
				c.CancelInFlight(pw.Start)
			}
		}
	}
	c.Complete(math.MaxUint64)
	return per
}

// TestBoundBehaviorMatchesAddressReplay: a Behavior bound to the prepared
// trace, which finds residents by dense key id, must produce exactly the
// Stats, per-lookup outcomes and decision events (evictions, invalidations
// and the rest, in order) of the address-keyed reference. It covers the 11
// apps, the nine online policies and the belady, foo and flack replays, with
// and without the inclusive L1i, at the default geometry, 16 ways and
// compaction.
func TestBoundBehaviorMatchesAddressReplay(t *testing.T) {
	blocks, apps := 3000, workload.Names()
	if raceEnabled {
		blocks, apps = 1500, apps[:3]
	}
	geometries := []struct {
		name string
		cfg  uopcache.Config
	}{
		{"default", uopcache.DefaultConfig()},
		{"16way", uopcache.Config{Entries: 512, Ways: 16, UopsPerEntry: 8, InsertDelay: 3}},
		{"compaction", uopcache.Config{Entries: 512, Ways: 8, UopsPerEntry: 8, InsertDelay: 3, Compaction: true}},
	}
	names := append(core.PolicyNames(), core.OfflineNames()...)
	for _, app := range apps {
		_, pws, err := core.TraceFor(app, blocks, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range geometries {
			cfg := core.DefaultConfig()
			cfg.UopCache = g.cfg
			pt := uopcache.Prepare(cfg.UopCache, pws)
			plans := &memPlans{m: map[string]*offline.Decisions{}}
			prof := profiles.CollectWith(pws, cfg.UopCache, profiles.SourceFLACK,
				profiles.CollectOptions{Prepared: pt, Plans: plans, Workers: 1})
			for _, withIC := range []bool{false, true} {
				for _, name := range names {
					var got eventLog
					opts := core.BehaviorOptions{WithICache: withIC, RecordPerLookup: true,
						Telemetry: core.Telemetry{Events: &got}, Prepared: pt, Plans: plans, Workers: 1}

					var res core.BehaviorResult
					var refPol uopcache.Policy
					var keep []bool
					var feat offline.Features
					switch name {
					case "belady":
						res, err = core.RunBehaviorByName(name, pws, cfg, opts)
						refPol = offline.NewBeladySchedule(pws, cfg.UopCache, offline.Options{Prepared: pt})
					case "foo", "flack":
						res, err = core.RunBehaviorByName(name, pws, cfg, opts)
						model := offline.CostOHR
						if name == "flack" {
							feat, model = offline.FLACKFeatures(), offline.CostVC
						}
						refPol = offline.NewFLACKSchedule(pws, cfg.UopCache,
							offline.Options{Features: feat, Prepared: pt, Plans: plans, Workers: 1})
						keep = offline.ComputeDecisionsCached(nil, pws, pt, cfg.UopCache, model, feat.SelBypass, 0, 1, plans).Keep
					default:
						var pol uopcache.Policy
						if pol, err = core.NewPolicy(name, prof, cfg.UopCache, policy.FURBYSConfig{}); err == nil {
							res = core.RunBehavior(pws, cfg, pol, opts)
							refPol, err = core.NewPolicy(name, prof, cfg.UopCache, policy.FURBYSConfig{})
						}
					}
					if err != nil {
						t.Fatal(err)
					}

					var want eventLog
					c := uopcache.New(cfg.UopCache, refPol)
					c.SetEventSink(&want)
					var ic *cache.Cache
					if withIC {
						ic = cache.New(cfg.L1I)
					}
					per := addrReplay(c, ic, pws, cfg.UopCache.InsertDelay, keep, feat)

					where := app + "/" + g.name + "/" + name
					if withIC {
						where += "/icache"
					}
					if res.Stats != c.Stats {
						t.Fatalf("%s: Stats\nbound   %+v\naddress %+v", where, res.Stats, c.Stats)
					}
					for i := range per {
						if res.PerLookup[i] != per[i] {
							t.Fatalf("%s: lookup %d = %+v, address replay %+v", where, i, res.PerLookup[i], per[i])
						}
					}
					if len(got.events) != len(want.events) {
						t.Fatalf("%s: %d events, address replay %d", where, len(got.events), len(want.events))
					}
					for i := range got.events {
						if got.events[i] != want.events[i] {
							t.Fatalf("%s: event %d = %+v, address replay %+v", where, i, got.events[i], want.events[i])
						}
					}
				}
			}
		}
	}
}
