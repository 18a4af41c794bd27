package policy_test

import (
	"testing"

	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

func pw(start uint64, uops int) trace.PW {
	return trace.PW{Start: start, NumUops: uint16(uops), Bytes: uint16(uops * 4),
		NumInst: uint16(uops)}
}

// oneSet builds a single-set cache (4 ways) so victim logic is easy to probe.
func oneSet(p uopcache.Policy) *uopcache.Cache {
	return uopcache.New(uopcache.Config{Entries: 4, Ways: 4, UopsPerEntry: 8}, p)
}

// sameSetAddrs returns n window starts that all map to set 0 of a cache.
func sameSetAddrs(c *uopcache.Cache, n int) []uint64 {
	var out []uint64
	for a := uint64(0x1000); len(out) < n; a += 16 {
		if c.SetIndex(a) == 0 {
			out = append(out, a)
		}
	}
	return out
}

func TestLRUVictimOrder(t *testing.T) {
	p := policy.NewLRU()
	c := oneSet(p)
	addrs := sameSetAddrs(c, 5)
	for _, a := range addrs[:4] {
		c.Insert(pw(a, 4))
	}
	// Touch 0 and 1; LRU is addrs[2].
	c.Lookup(pw(addrs[0], 4))
	c.Lookup(pw(addrs[1], 4))
	c.Insert(pw(addrs[4], 4))
	if _, ok := c.ResidentFor(addrs[2]); ok {
		t.Error("LRU window should have been evicted")
	}
	for _, a := range []uint64{addrs[0], addrs[1], addrs[3], addrs[4]} {
		if _, ok := c.ResidentFor(a); !ok {
			t.Errorf("window %#x should be resident", a)
		}
	}
	if p.Name() != "lru" {
		t.Error("name")
	}
}

func TestRandomEvictsSomething(t *testing.T) {
	p := policy.NewRandom(1)
	c := oneSet(p)
	addrs := sameSetAddrs(c, 5)
	for _, a := range addrs {
		c.Insert(pw(a, 4))
	}
	if c.UsedEntries(0) != 4 {
		t.Errorf("used = %d", c.UsedEntries(0))
	}
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats.Evictions)
	}
	if policy.NewRandom(0).Name() != "random" {
		t.Error("name")
	}
}

// TestRandomDeterministicAcrossRuns: same seed -> same decisions, even
// though uopcache hands residents over in map order.
func TestRandomDeterministicAcrossRuns(t *testing.T) {
	run := func() uopcache.Stats {
		p := policy.NewRandom(42)
		c := uopcache.New(uopcache.Config{Entries: 16, Ways: 4, UopsPerEntry: 8}, p)
		state := uint64(7)
		for i := 0; i < 5000; i++ {
			state = state*6364136223846793005 + 1
			a := uint64(0x1000 + (state>>33)%400*16)
			w := pw(a, 1+int((state>>20)%16))
			c.Lookup(w)
			c.Insert(w)
		}
		return c.Stats
	}
	if run() != run() {
		t.Error("random policy not deterministic for fixed seed")
	}
}

func TestSRRIPPromoteOnHit(t *testing.T) {
	p := policy.NewSRRIP()
	c := oneSet(p)
	addrs := sameSetAddrs(c, 5)
	for _, a := range addrs[:4] {
		c.Insert(pw(a, 4))
	}
	// Hit addrs[0] -> RRPV 0; the others stay at 2. Inserting a new
	// window ages everyone to 3 except addrs[0] (at 1), so the victim is
	// one of addrs[1..3], never addrs[0].
	c.Lookup(pw(addrs[0], 4))
	c.Insert(pw(addrs[4], 4))
	if _, ok := c.ResidentFor(addrs[0]); !ok {
		t.Error("recently-hit window evicted by SRRIP")
	}
	if p.Name() != "srrip" {
		t.Error("name")
	}
}

func TestSHIPPPLearnsDeadSignatures(t *testing.T) {
	p := policy.NewSHiPPP()
	c := uopcache.New(uopcache.Config{Entries: 8, Ways: 4, UopsPerEntry: 8}, p)
	if p.Name() != "ship++" {
		t.Error("name")
	}
	// Stream many never-reused windows through one set, then check that a
	// popular window survives pressure: dead-signature arrivals are
	// inserted at distant RRPV and get evicted before the hot window.
	addrs := sameSetAddrs(c, 64)
	hot := addrs[0]
	c.Insert(pw(hot, 4))
	for round := 0; round < 8; round++ {
		for _, a := range addrs[1:] {
			c.Lookup(pw(a, 4))
			c.Insert(pw(a, 4))
			c.Lookup(pw(hot, 4)) // keep the hot window warm
			if _, ok := c.ResidentFor(hot); !ok {
				// Reinsert if evicted early in training.
				c.Insert(pw(hot, 4))
			}
		}
	}
	// After training, the hot window should still be resident.
	if _, ok := c.ResidentFor(hot); !ok {
		t.Error("hot window evicted despite SHiP++ training")
	}
}

func TestGHRPTrainsDeadAndBypasses(t *testing.T) {
	p := policy.NewGHRP()
	c := uopcache.New(uopcache.Config{Entries: 8, Ways: 4, UopsPerEntry: 8}, p)
	if p.Name() != "ghrp" {
		t.Error("name")
	}
	// Cycle a large set of one-shot windows: every eviction trains
	// "dead"; eventually arrivals get bypassed.
	addrs := sameSetAddrs(c, 128)
	for round := 0; round < 6; round++ {
		for _, a := range addrs {
			w := pw(a, 4)
			c.Lookup(w)
			c.Insert(w)
		}
	}
	if c.Stats.Bypasses == 0 {
		t.Error("GHRP never bypassed despite dead-block training")
	}
}

func TestGHRPNoBypassWhenDisabled(t *testing.T) {
	p := policy.NewGHRP()
	p.Bypass = false
	c := uopcache.New(uopcache.Config{Entries: 8, Ways: 4, UopsPerEntry: 8}, p)
	addrs := sameSetAddrs(c, 128)
	for round := 0; round < 6; round++ {
		for _, a := range addrs {
			w := pw(a, 4)
			c.Lookup(w)
			c.Insert(w)
		}
	}
	if c.Stats.Bypasses != 0 {
		t.Errorf("bypasses = %d with bypassing disabled", c.Stats.Bypasses)
	}
}

func TestMockingjayPrefersKeepingShortRD(t *testing.T) {
	p := policy.NewMockingjay()
	c := oneSet(p)
	if p.Name() != "mockingjay" {
		t.Error("name")
	}
	addrs := sameSetAddrs(c, 6)
	hot := addrs[0]
	// Train: hot reused constantly -> tiny RD.
	for i := 0; i < 30; i++ {
		c.Lookup(pw(hot, 4))
		c.Insert(pw(hot, 4))
	}
	for _, a := range addrs[1:4] {
		c.Insert(pw(a, 4))
	}
	// Insert pressure: hot (small predicted RD) should survive.
	c.Insert(pw(addrs[4], 4))
	c.Insert(pw(addrs[5], 4))
	if _, ok := c.ResidentFor(hot); !ok {
		t.Error("hot window with short predicted reuse distance was evicted")
	}
}

func TestThermometerEvictsColdFirst(t *testing.T) {
	c := oneSet(policy.NewLRU()) // temp to get set addresses
	addrs := sameSetAddrs(c, 5)
	class := map[uint64]policy.ThermoClass{
		addrs[0]: policy.ThermoHot,
		addrs[1]: policy.ThermoWarm,
		addrs[2]: policy.ThermoCold,
		addrs[3]: policy.ThermoHot,
		addrs[4]: policy.ThermoWarm,
	}
	p := policy.NewThermometer(class)
	if p.Name() != "thermometer" {
		t.Error("name")
	}
	c = oneSet(p)
	for _, a := range addrs[:4] {
		c.Insert(pw(a, 4))
	}
	// Even though addrs[2] (cold) is more recently used than addrs[0],
	// it must be the victim.
	c.Lookup(pw(addrs[2], 4))
	c.Insert(pw(addrs[4], 4))
	if _, ok := c.ResidentFor(addrs[2]); ok {
		t.Error("cold window survived while hot windows were evictable")
	}
	for _, a := range []uint64{addrs[0], addrs[1], addrs[3]} {
		if _, ok := c.ResidentFor(a); !ok {
			t.Errorf("%#x should survive", a)
		}
	}
}

func TestThermometerDefaultClass(t *testing.T) {
	p := policy.NewThermometer(map[uint64]policy.ThermoClass{})
	c := oneSet(p)
	addrs := sameSetAddrs(c, 5)
	for _, a := range addrs {
		c.Insert(pw(a, 4))
	}
	if c.UsedEntries(0) != 4 {
		t.Errorf("used = %d", c.UsedEntries(0))
	}
}

func TestFURBYSVictimByWeight(t *testing.T) {
	c := oneSet(policy.NewLRU())
	addrs := sameSetAddrs(c, 5)
	weights := map[uint64]uint8{
		addrs[0]: 7, addrs[1]: 5, addrs[2]: 1, addrs[3]: 6, addrs[4]: 4,
	}
	p := policy.NewFURBYS(policy.DefaultFURBYSConfig(), weights)
	if p.Name() != "furbys" {
		t.Error("name")
	}
	c = oneSet(p)
	for _, a := range addrs[:4] {
		c.Insert(pw(a, 4))
	}
	c.Insert(pw(addrs[4], 4)) // weight 4 incoming; min resident weight is 1
	if _, ok := c.ResidentFor(addrs[2]); ok {
		t.Error("minimum-weight window should be the victim")
	}
	if _, ok := c.ResidentFor(addrs[4]); !ok {
		t.Error("incoming window should be inserted")
	}
	if p.Stats.VictimByWeight != 1 || p.Stats.VictimBySRRIP != 0 {
		t.Errorf("stats = %+v", p.Stats)
	}
}

func TestFURBYSBypassLowWeight(t *testing.T) {
	c := oneSet(policy.NewLRU())
	addrs := sameSetAddrs(c, 5)
	weights := map[uint64]uint8{
		addrs[0]: 7, addrs[1]: 6, addrs[2]: 5, addrs[3]: 6,
		addrs[4]: 2, // incoming: 2 < min(5) - K(1) -> bypass
	}
	p := policy.NewFURBYS(policy.DefaultFURBYSConfig(), weights)
	c = oneSet(p)
	for _, a := range addrs[:4] {
		c.Insert(pw(a, 4))
	}
	if out := c.Insert(pw(addrs[4], 4)); out != uopcache.Bypassed {
		t.Errorf("insert = %v, want Bypassed", out)
	}
	if p.Stats.Bypasses != 1 {
		t.Errorf("bypass stats = %+v", p.Stats)
	}
	// Borderline: weight = min - K exactly -> NOT bypassed.
	weights[addrs[4]] = 4
	if out := c.Insert(pw(addrs[4], 4)); out != uopcache.Inserted {
		t.Errorf("borderline insert = %v, want Inserted", out)
	}
}

func TestFURBYSBypassDisabled(t *testing.T) {
	c := oneSet(policy.NewLRU())
	addrs := sameSetAddrs(c, 5)
	weights := map[uint64]uint8{addrs[0]: 7, addrs[1]: 7, addrs[2]: 7, addrs[3]: 7, addrs[4]: 0}
	cfg := policy.DefaultFURBYSConfig()
	cfg.BypassEnabled = false
	p := policy.NewFURBYS(cfg, weights)
	c = oneSet(p)
	for _, a := range addrs[:4] {
		c.Insert(pw(a, 4))
	}
	if out := c.Insert(pw(addrs[4], 4)); out != uopcache.Inserted {
		t.Errorf("insert with bypass disabled = %v", out)
	}
}

// TestFURBYSPitfallDetector reproduces the paper's local miss-pitfall
// scenario: a low-weight window repeatedly evicted and reinserted must
// eventually trigger one SRRIP decision that evicts a high-weight (but
// locally cold) window instead.
func TestFURBYSPitfallDetector(t *testing.T) {
	c := oneSet(policy.NewLRU())
	addrs := sameSetAddrs(c, 6)
	a, i := addrs[0], addrs[4] // the thrashing pair {A, I}
	weights := map[uint64]uint8{
		a: 1, addrs[1]: 7, addrs[2]: 7, addrs[3]: 5, i: 2,
	}
	p := policy.NewFURBYS(policy.DefaultFURBYSConfig(), weights)
	c = oneSet(p)
	for _, x := range addrs[:4] {
		c.Insert(pw(x, 4))
	}
	// Alternate A and I misses: weight-based decisions evict A for I and
	// I for A repeatedly; the detector must fire and hand one decision to
	// SRRIP.
	for round := 0; round < 10; round++ {
		c.Lookup(pw(i, 4))
		c.Insert(pw(i, 4))
		c.Lookup(pw(a, 4))
		c.Insert(pw(a, 4))
	}
	if p.Stats.VictimBySRRIP == 0 {
		t.Errorf("pitfall detector never degraded to SRRIP: %+v", p.Stats)
	}
	if p.Stats.VictimByWeight == 0 {
		t.Errorf("no weight-based decisions at all: %+v", p.Stats)
	}
}

func TestFURBYSDetectorDepthZeroNeverSRRIP(t *testing.T) {
	c := oneSet(policy.NewLRU())
	addrs := sameSetAddrs(c, 6)
	weights := map[uint64]uint8{}
	for _, x := range addrs {
		weights[x] = 3
	}
	cfg := policy.DefaultFURBYSConfig()
	cfg.DetectorDepth = 0
	p := policy.NewFURBYS(cfg, weights)
	c = oneSet(p)
	for round := 0; round < 20; round++ {
		for _, x := range addrs {
			c.Lookup(pw(x, 4))
			c.Insert(pw(x, 4))
		}
	}
	if p.Stats.VictimBySRRIP != 0 {
		t.Errorf("SRRIP decisions with detector disabled: %+v", p.Stats)
	}
}

func TestFURBYSConfigDefaults(t *testing.T) {
	cfg := policy.DefaultFURBYSConfig()
	if cfg.WeightBits != 3 || cfg.K != 1 || cfg.DetectorDepth != 2 || !cfg.BypassEnabled {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.MaxWeight() != 7 {
		t.Errorf("MaxWeight = %d", cfg.MaxWeight())
	}
	// Zero-value config falls back to defaults.
	p := policy.NewFURBYS(policy.FURBYSConfig{}, nil)
	if p.Config().WeightBits != 3 {
		t.Errorf("zero config not defaulted: %+v", p.Config())
	}
}

func TestFURBYSStatsCoverage(t *testing.T) {
	var s policy.FURBYSStats
	if s.VictimCoverage() != 1 {
		t.Error("empty coverage should be 1")
	}
	s.VictimByWeight, s.VictimBySRRIP = 3, 1
	if got := s.VictimCoverage(); got != 0.75 {
		t.Errorf("coverage = %v", got)
	}
}

// TestAllPoliciesSurviveStress runs every policy against a mixed-size
// pseudo-random trace and checks the structural invariants hold and stats
// are internally consistent.
func TestAllPoliciesSurviveStress(t *testing.T) {
	weights := map[uint64]uint8{}
	classes := map[uint64]policy.ThermoClass{}
	mk := []struct {
		name string
		p    func() uopcache.Policy
	}{
		{"lru", func() uopcache.Policy { return policy.NewLRU() }},
		{"random", func() uopcache.Policy { return policy.NewRandom(3) }},
		{"srrip", func() uopcache.Policy { return policy.NewSRRIP() }},
		{"ship++", func() uopcache.Policy { return policy.NewSHiPPP() }},
		{"ghrp", func() uopcache.Policy { return policy.NewGHRP() }},
		{"mockingjay", func() uopcache.Policy { return policy.NewMockingjay() }},
		{"thermometer", func() uopcache.Policy { return policy.NewThermometer(classes) }},
		{"furbys", func() uopcache.Policy { return policy.NewFURBYS(policy.DefaultFURBYSConfig(), weights) }},
	}
	for _, tc := range mk {
		t.Run(tc.name, func(t *testing.T) {
			cfg := uopcache.Config{Entries: 64, Ways: 8, UopsPerEntry: 8, InsertDelay: 2}
			c := uopcache.New(cfg, tc.p())
			seq := make([]trace.PW, 0, 30000)
			state := uint64(99)
			for i := 0; i < 30000; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				a := uint64(0x1000 + (state>>33)%900*16)
				u := 1 + int((state>>13)%24)
				seq = append(seq, pw(a, u))
			}
			uopcache.NewBehavior(c, nil, uopcache.Prepare(cfg, seq)).Run()
			for s := 0; s < cfg.Sets(); s++ {
				if u := c.UsedEntries(s); u > cfg.Ways {
					t.Fatalf("set %d over capacity: %d", s, u)
				}
			}
			st := c.Stats
			if st.UopsHit+st.UopsMissed != st.UopsRequested {
				t.Errorf("uop accounting broken: %+v", st)
			}
			if st.Lookups != st.FullHits+st.PartialHits+st.Misses {
				t.Errorf("lookup accounting broken: %+v", st)
			}
		})
	}
}
