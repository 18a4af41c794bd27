package core_test

import (
	"fmt"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// stampCheck wraps a policy and keeps recency the way each policy once kept
// it for itself: its own counter ticks at every OnHit and OnInsert and
// stamps the touched slot. At every Victim call, each resident's Stamp in
// the cache's view must equal the wrapper's own stamp for that slot.
type stampCheck struct {
	uopcache.Policy
	slotsPerSet int
	touches     uint64
	stamp       []uint64
	victimCalls int
	err         error
}

func (p *stampCheck) Bind(g uopcache.Geometry) {
	p.Policy.Bind(g)
	p.slotsPerSet = g.SlotsPerSet
	p.stamp = make([]uint64, g.Slots())
}

func (p *stampCheck) touch(set int, slot int32) {
	p.touches++
	p.stamp[set*p.slotsPerSet+int(slot)] = p.touches
}

func (p *stampCheck) OnHit(set int, slot int32, key uint64) {
	p.touch(set, slot)
	p.Policy.OnHit(set, slot, key)
}

func (p *stampCheck) OnInsert(set int, slot int32, pw trace.PW) {
	p.touch(set, slot)
	p.Policy.OnInsert(set, slot, pw)
}

func (p *stampCheck) OnEvict(set int, slot int32, key uint64) {
	p.stamp[set*p.slotsPerSet+int(slot)] = 0
	p.Policy.OnEvict(set, slot, key)
}

func (p *stampCheck) Victim(set int, residents []uopcache.Resident, incoming trace.PW) uopcache.Decision {
	p.victimCalls++
	for _, r := range residents {
		if want := p.stamp[set*p.slotsPerSet+int(r.Slot)]; r.Stamp != want && p.err == nil {
			p.err = fmt.Errorf("victim call %d, set %d, slot %d (%#x): stamp %d, reference %d",
				p.victimCalls, set, r.Slot, r.Key, r.Stamp, want)
		}
	}
	return p.Policy.Victim(set, residents, incoming)
}

// stampPolicies are the policies that rank or break ties by recency.
var stampPolicies = []string{"lru", "srrip", "drrip", "ship++", "ghrp", "mockingjay", "thermometer", "furbys"}

// TestCacheStampsMatchPolicyRecency: the cache's recency stamps equal, value
// for value, the stamps a policy-private counter ticked on OnHit and
// OnInsert would hold, at every victim decision. It runs behaviour mode for
// the recency-ranked policies on the 11 apps, with and without the inclusive
// L1i (cut to 8 KB so it invalidates windows), at the default geometry, 16
// ways and compaction; and timing mode for kafka under lru and furbys.
func TestCacheStampsMatchPolicyRecency(t *testing.T) {
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
	check := func(where string, p *stampCheck) {
		t.Helper()
		if p.err != nil {
			t.Fatalf("%s: %v", where, p.err)
		}
		if p.victimCalls == 0 {
			t.Fatalf("%s: no victim call compared a stamp", where)
		}
	}
	newCheck := func(name string, prof *profiles.Profile, cfg core.Config) *stampCheck {
		pol, err := core.NewPolicy(name, prof, cfg.UopCache, policy.FURBYSConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return &stampCheck{Policy: pol}
	}
	var invalidated uint64
	for _, app := range apps {
		_, pws, err := core.TraceFor(app, blocks, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range geometries {
			cfg := core.DefaultConfig()
			cfg.UopCache = g.cfg
			cfg.L1I.SizeBytes = 8 << 10
			pt := uopcache.Prepare(cfg.UopCache, pws)
			prof := profiles.CollectWith(pws, cfg.UopCache, profiles.SourceFLACK,
				profiles.CollectOptions{Prepared: pt, Workers: 1})
			for _, withIC := range []bool{false, true} {
				for _, name := range stampPolicies {
					p := newCheck(name, prof, cfg)
					res := core.RunBehavior(pws, cfg, p, core.BehaviorOptions{WithICache: withIC, Prepared: pt})
					invalidated += res.Stats.Invalidations
					check(fmt.Sprintf("%s/%s/%s/icache=%v", app, g.name, name, withIC), p)
				}
			}
		}
	}
	if invalidated == 0 {
		t.Error("the inclusive L1i invalidated no window: stamps of invalidated slots went unchecked")
	}

	tr, pws, err := core.TraceFor("kafka", blocks, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	prof := profiles.CollectWith(pws, cfg.UopCache, profiles.SourceFLACK, profiles.CollectOptions{Workers: 1})
	for _, name := range []string{"lru", "furbys"} {
		p := newCheck(name, prof, cfg)
		core.RunTiming(tr, pws, cfg, p, core.Telemetry{})
		check("kafka/timing/"+name, p)
	}
}
