package offline

import (
	"math/rand"
	"testing"

	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

func TestBeladyScheduleMatchesVictimChoice(t *testing.T) {
	// Same setup as TestBeladyKeepsSoonReused but through the
	// timing-compatible SchedulePolicy.
	a, b, c := uint64(0x1000), uint64(0x2000), uint64(0x3000)
	s := seq([2]uint64{a, 4}, [2]uint64{b, 4}, [2]uint64{c, 4}, [2]uint64{a, 4}, [2]uint64{a, 4})
	sp := NewBeladySchedule(s, tinyCfg(), Options{})
	if sp.Name() != "belady" {
		t.Error("name")
	}
	cache := uopcache.New(tinyCfg(), sp)
	pos := 0
	sp.BindPos(func() int { return pos })
	hits := 0
	for i, pw := range s {
		pos = i
		r := cache.Lookup(pw)
		if r.Kind == uopcache.ProbeFull {
			hits++
		} else {
			cache.Insert(pw)
		}
	}
	if hits != 2 {
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
	pos := 0
	sp.BindPos(func() int { return pos })
	for i, p := range s {
		pos = i
		r := cache.Lookup(p)
		if r.MissUops > 0 {
			cache.Insert(p)
		}
	}
	st := cache.Stats
	if st.Bypasses == 0 {
		t.Error("FLACK schedule never bypassed under pressure")
	}
	// Compare against LRU on the same trace: the plan should win.
	lruC := uopcache.New(cfg, newLRUForTest())
	for _, p := range s {
		r := lruC.Lookup(p)
		if r.MissUops > 0 {
			lruC.Insert(p)
		}
	}
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
	best := residents[0].Key
	bestS := p.stamp[[2]uint64{uint64(set), best}]
	for _, r := range residents[1:] {
		s := p.stamp[[2]uint64{uint64(set), r.Key}]
		if s < bestS || (s == bestS && r.Key < best) {
			best, bestS = r.Key, s
		}
	}
	return uopcache.Decision{VictimKey: best}
}

func TestKeptNowLastDecisionWins(t *testing.T) {
	// Window at positions 0 and 2; Keep[0]=true, Keep[2]=false.
	s := seq([2]uint64{0x1000, 4}, [2]uint64{0x2000, 4}, [2]uint64{0x1000, 4})
	sp := NewFLACKSchedule(s, tinyCfg(), Options{Features: FLACKFeatures(), Workers: 1})
	sp.keep = []bool{true, false, false}
	if !sp.keptNow(0x1000, 0) {
		t.Error("pos 0 should be kept")
	}
	if !sp.keptNow(0x1000, 1) {
		t.Error("pos 1 inherits the pos-0 decision")
	}
	if sp.keptNow(0x1000, 2) {
		t.Error("pos 2 decision is unkept")
	}
	if sp.keptNow(0x9999, 0) {
		t.Error("never-seen windows default to unkept")
	}
}
