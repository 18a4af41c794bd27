package offline

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// driveCycles runs s through c on a cycle clock the way the timing frontend
// does: land the insertions due by now, look up, schedule a miss's insertion
// delay cycles ahead, and spend two cycles per window. before, when non-nil,
// runs ahead of each lookup. The queue is flushed at the end.
func driveCycles(c *uopcache.Cache, s []trace.PW, delay uint64, before func(i int)) {
	var cycle uint64
	for i, p := range s {
		if before != nil {
			before(i)
		}
		c.Complete(cycle)
		if r := c.Lookup(p); r.MissUops > 0 {
			c.Schedule(p, cycle+delay)
		}
		cycle += 2
	}
	c.Complete(math.MaxUint64)
}

func TestBeladyScheduleMatchesVictimChoice(t *testing.T) {
	// Same setup as TestBeladyKeepsSoonReused, but on the timing-mode
	// cycle clock.
	a, b, c := uint64(0x1000), uint64(0x2000), uint64(0x3000)
	s := seq([2]uint64{a, 4}, [2]uint64{b, 4}, [2]uint64{c, 4}, [2]uint64{a, 4}, [2]uint64{a, 4})
	sp := NewBeladySchedule(s, tinyCfg(), Options{})
	if sp.Name() != "belady" {
		t.Error("name")
	}
	cache := uopcache.New(tinyCfg(), sp)
	driveCycles(cache, s, 1, nil)
	if hits := cache.Stats.FullHits; hits != 2 {
		t.Errorf("hits = %d, want 2 (B must be the victim)", hits)
	}
}

func TestFLACKScheduleBypassesUnkept(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var s []trace.PW
	for i := 0; i < 3000; i++ {
		s = append(s, pw(uint64(0x1000+rng.Intn(60)*16), 1+rng.Intn(16)))
	}
	cfg := uopcache.Config{Entries: 8, Ways: 8, UopsPerEntry: 8, InsertDelay: 0}
	sp := NewFLACKSchedule(s, cfg, Options{Features: FLACKFeatures(), Workers: 1})
	if sp.Name() != "flack" {
		t.Errorf("name = %s", sp.Name())
	}
	cache := uopcache.New(cfg, sp)
	driveCycles(cache, s, 1, nil)
	st := cache.Stats
	if st.Bypasses == 0 {
		t.Error("FLACK schedule never bypassed under pressure")
	}
	// Compare against LRU on the same trace: the plan should win.
	lruC := uopcache.New(cfg, newLRUForTest())
	driveCycles(lruC, s, 1, nil)
	if st.UopsMissed >= lruC.Stats.UopsMissed {
		t.Errorf("FLACK schedule missed %d uops, LRU %d", st.UopsMissed, lruC.Stats.UopsMissed)
	}
}

// newLRUForTest is a minimal LRU policy local to this package's tests
// (internal/policy depends on uopcache, so importing it here is fine for
// the external behaviour but would be a cycle from this internal test
// package — keep a tiny local one instead).
type testLRU struct {
	clock uint64
	stamp map[[2]uint64]uint64
}

func newLRUForTest() *testLRU { return &testLRU{stamp: make(map[[2]uint64]uint64)} }

func (p *testLRU) Name() string           { return "test-lru" }
func (p *testLRU) Bind(uopcache.Geometry) {}
func (p *testLRU) OnHit(set int, _ int32, pc uint64) {
	p.clock++
	p.stamp[[2]uint64{uint64(set), pc}] = p.clock
}
func (p *testLRU) OnInsert(set int, _ int32, pw trace.PW) {
	p.clock++
	p.stamp[[2]uint64{uint64(set), pw.Start}] = p.clock
}
func (p *testLRU) OnEvict(set int, _ int32, pc uint64) {
	delete(p.stamp, [2]uint64{uint64(set), pc})
}
func (p *testLRU) Victim(set int, residents []uopcache.Resident, _ trace.PW) uopcache.Decision {
	best := 0
	bestS := p.stamp[[2]uint64{uint64(set), residents[0].Key}]
	for i, r := range residents[1:] {
		s := p.stamp[[2]uint64{uint64(set), r.Key}]
		if s < bestS || (s == bestS && r.Key < residents[best].Key) {
			best, bestS = i+1, s
		}
	}
	return uopcache.Decision{Victim: residents[best].Slot}
}

func TestKeptNowLastDecisionWins(t *testing.T) {
	// Window at positions 0 and 2; Keep[0]=true, Keep[2]=false.
	s := seq([2]uint64{0x1000, 4}, [2]uint64{0x2000, 4}, [2]uint64{0x1000, 4})
	sp := newPlanPolicy(uopcache.Prepare(tinyCfg(), s), []bool{true, false, false}, "foo")
	var now uint64
	sp.Bind(uopcache.Geometry{Clock: func() uint64 { return now }})
	keptAt := func(clock uint64, key uint64) bool {
		now = clock
		sp.advance()
		return sp.kept(key)
	}
	if keptAt(0, 0x9999) {
		t.Error("never-seen windows default to unkept")
	}
	if !keptAt(0, 0x1000) {
		t.Error("pos 0 should be kept")
	}
	if !keptAt(1, 0x1000) {
		t.Error("pos 1 inherits the pos-0 decision")
	}
	if keptAt(2, 0x1000) {
		t.Error("pos 2 decision is unkept")
	}
	if keptAt(3, 0x1000) || sp.o.Pos() != 2 {
		t.Errorf("the end-of-run flush must stay at the last lookup (oracle at %d)", sp.o.Pos())
	}
}

// decisionLog records the eviction and bypass events a cache emits.
type decisionLog struct{ ev []telemetry.Event }

func (l *decisionLog) Emit(e telemetry.Event) {
	if e.Kind == telemetry.EventEvict || e.Kind == telemetry.EventBypass {
		l.ev = append(l.ev, e)
	}
}

// TestPlanSurvivesWarmupReset drives one cache under each plan policy
// twice over the same trace, once with Cache.ResetStats at lookup k, and
// requires identical eviction and bypass decisions after k: the policy's
// position is the cache's lookup clock, which a warmup reset leaves alone.
// It runs on the behaviour driver's lookup clock and on the timing
// frontend's cycle clock.
func TestPlanSurvivesWarmupReset(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var s []trace.PW
	for i := 0; i < 3000; i++ {
		s = append(s, pw(uint64(0x1000+rng.Intn(60)*16), 1+rng.Intn(16)))
	}
	cfg := uopcache.Config{Entries: 8, Ways: 8, UopsPerEntry: 8, InsertDelay: 2}
	pt := uopcache.Prepare(cfg, s)
	const k = 1000
	solve := func(model CostModel, fold bool) []bool {
		return ComputeDecisionsPrepared(context.Background(), pt, cfg, model, fold, 0, 1).Keep
	}
	policies := []struct {
		name string
		keep []bool
	}{
		{"belady", nil},
		{"foo", solve(CostOHR, false)},
		{"flack", solve(CostVC, true)},
	}
	modes := []struct {
		name  string
		drive func(c *uopcache.Cache, before func(i int))
	}{
		{"behavior", func(c *uopcache.Cache, before func(i int)) {
			b := uopcache.NewBehavior(c, nil, pt)
			for i := 0; i < pt.Len(); i++ {
				before(i)
				b.Access(i)
			}
			b.Flush()
		}},
		{"timing", func(c *uopcache.Cache, before func(i int)) { driveCycles(c, s, 3, before) }},
	}
	for _, pol := range policies {
		for _, mode := range modes {
			t.Run(pol.name+"/"+mode.name, func(t *testing.T) {
				run := func(reset bool) (after []telemetry.Event, st uopcache.Stats) {
					c := uopcache.New(cfg, newPlanPolicy(pt, pol.keep, pol.name))
					log := &decisionLog{}
					c.SetEventSink(log)
					mark := 0
					mode.drive(c, func(i int) {
						if i == k {
							mark = len(log.ev)
							if reset {
								c.ResetStats()
							}
						}
					})
					return log.ev[mark:], c.Stats
				}
				want, full := run(false)
				got, warm := run(true)
				if warm.Lookups != uint64(len(s)-k) || full.Lookups != uint64(len(s)) {
					t.Fatalf("lookups %d after the reset, %d without", warm.Lookups, full.Lookups)
				}
				if len(want) == 0 {
					t.Fatalf("no decisions after lookup %d", k)
				}
				if len(got) != len(want) {
					t.Fatalf("%d decisions after the reset, %d without", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("decision %d after lookup %d differs:\n  reset    %+v\n  no reset %+v", i, k, got[i], want[i])
					}
				}
			})
		}
	}
}
