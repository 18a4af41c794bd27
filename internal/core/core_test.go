package core_test

import (
	"strings"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/uopcache"
)

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := core.DefaultConfig()
	if c.UopCache.Entries != 512 || c.UopCache.Ways != 8 || c.UopCache.UopsPerEntry != 8 {
		t.Errorf("uop cache = %+v", c.UopCache)
	}
	if c.L1I.SizeBytes != 32<<10 || c.L1I.Ways != 8 || c.L1I.LineBytes != 64 {
		t.Errorf("L1i = %+v", c.L1I)
	}
	if c.Branch.BTBEntries != 8192 || c.Branch.RASEntries != 32 || c.Branch.IBTBEntries != 4096 {
		t.Errorf("branch = %+v", c.Branch)
	}
	if c.Frontend.DecodeWidth != 4 || c.Frontend.DecodeLatency != 5 {
		t.Errorf("frontend = %+v", c.Frontend)
	}
	if c.Backend.Width != 6 || c.Backend.ROB != 256 {
		t.Errorf("backend = %+v", c.Backend)
	}
	if err := c.UopCache.Validate(); err != nil {
		t.Error(err)
	}
}

func TestZen4ConfigLarger(t *testing.T) {
	z3, z4 := core.DefaultConfig(), core.Zen4Config()
	if z4.UopCache.Entries <= z3.UopCache.Entries {
		t.Error("Zen4 uop cache should be larger")
	}
	if z4.Branch.BTBEntries <= z3.Branch.BTBEntries {
		t.Error("Zen4 BTB should be larger")
	}
	if err := z4.UopCache.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewPolicyAllNames(t *testing.T) {
	cfg := core.DefaultConfig()
	_, pws, err := core.TraceFor("kafka", 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiles.Collect(pws, cfg.UopCache, profiles.SourceFLACK)
	for _, name := range core.PolicyNames() {
		p, err := core.NewPolicy(name, prof, cfg.UopCache, policy.FURBYSConfig{})
		if err != nil {
			t.Errorf("NewPolicy(%s): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("policy name %q != %q", p.Name(), name)
		}
	}
	if _, err := core.NewPolicy("nosuch", nil, cfg.UopCache, policy.FURBYSConfig{}); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := core.NewPolicy("furbys", nil, cfg.UopCache, policy.FURBYSConfig{}); err == nil {
		t.Error("furbys without profile should error")
	}
	if _, err := core.NewPolicy("thermometer", nil, cfg.UopCache, policy.FURBYSConfig{}); err == nil {
		t.Error("thermometer without profile should error")
	}
}

func TestTraceForUnknownApp(t *testing.T) {
	if _, _, err := core.TraceFor("nosuch", 100, 0); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("err = %v", err)
	}
}

func TestRunBehaviorRecordsLookups(t *testing.T) {
	cfg := core.DefaultConfig()
	_, pws, _ := core.TraceFor("python", 5000, 0)
	res := core.RunBehavior(pws, cfg, policy.NewLRU(), core.BehaviorOptions{RecordPerLookup: true})
	if len(res.PerLookup) != len(pws) {
		t.Fatalf("PerLookup %d != %d", len(res.PerLookup), len(pws))
	}
	if res.Stats.Lookups != uint64(len(pws)) {
		t.Errorf("lookups = %d", res.Stats.Lookups)
	}
	var hit, miss uint64
	for _, r := range res.PerLookup {
		hit += uint64(r.HitUops)
		miss += uint64(r.MissUops)
	}
	if hit != res.Stats.UopsHit || miss != res.Stats.UopsMissed {
		t.Error("per-lookup outcomes disagree with aggregate stats")
	}
}

func TestRunBehaviorByNameAll(t *testing.T) {
	cfg := core.DefaultConfig()
	_, pws, _ := core.TraceFor("kafka", 8000, 0)
	names := append(core.PolicyNames(), core.OfflineNames()...)
	lruMiss := uint64(0)
	for _, name := range names {
		res, err := core.RunBehaviorByName(name, pws, cfg, core.BehaviorOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.UopsRequested == 0 {
			t.Errorf("%s: no uops requested", name)
		}
		if name == "lru" {
			lruMiss = res.Stats.UopsMissed
		}
		if name == "furbys" && res.FURBYS == nil {
			t.Error("furbys run missing FURBYS stats")
		}
	}
	// FLACK must beat LRU on a real workload.
	flack, _ := core.RunBehaviorByName("flack", pws, cfg, core.BehaviorOptions{})
	if flack.Stats.UopsMissed >= lruMiss {
		t.Errorf("FLACK (%d missed uops) did not beat LRU (%d)", flack.Stats.UopsMissed, lruMiss)
	}
	if _, err := core.RunBehaviorByName("nosuch", pws, cfg, core.BehaviorOptions{}); err == nil {
		t.Error("unknown name should error")
	}
}

func TestRunBehaviorWithICacheInvalidates(t *testing.T) {
	cfg := core.DefaultConfig()
	_, pws, _ := core.TraceFor("clang", 30000, 0)
	res := core.RunBehavior(pws, cfg, policy.NewLRU(), core.BehaviorOptions{WithICache: true})
	if res.Stats.Invalidations == 0 {
		t.Error("no inclusive invalidations under icache pressure")
	}
	perfect := core.RunBehavior(pws, cfg, policy.NewLRU(), core.BehaviorOptions{})
	if perfect.Stats.Invalidations != 0 {
		t.Error("perfect icache should never invalidate")
	}
	if res.Stats.UopsMissed < perfect.Stats.UopsMissed {
		t.Error("inclusive invalidations should not reduce misses")
	}
}

func TestRunTimingProducesIPCAndPower(t *testing.T) {
	cfg := core.DefaultConfig()
	blocks, pws, _ := core.TraceFor("kafka", 15000, 0)
	res := core.RunTiming(blocks, pws, cfg, policy.NewLRU(), core.Telemetry{})
	if res.Frontend.IPC() <= 0 {
		t.Error("IPC <= 0")
	}
	if res.Power.Total() <= 0 || res.PPW <= 0 {
		t.Error("power model returned nothing")
	}
	if res.Power.Decoder <= 0 || res.Power.UopCache <= 0 {
		t.Errorf("breakdown = %+v", res.Power)
	}
}

func TestMissReduction(t *testing.T) {
	base := uopcache.Stats{UopsMissed: 100}
	other := uopcache.Stats{UopsMissed: 80}
	if got := core.MissReduction(base, other); got != 0.2 {
		t.Errorf("reduction = %v", got)
	}
	if core.MissReduction(uopcache.Stats{}, other) != 0 {
		t.Error("zero baseline should yield 0")
	}
	worse := uopcache.Stats{UopsMissed: 120}
	if core.MissReduction(base, worse) >= 0 {
		t.Error("regression should be negative")
	}
}

func TestPolicyNameLists(t *testing.T) {
	if len(core.PolicyNames()) != 9 || len(core.OfflineNames()) != 3 {
		t.Errorf("name lists: %v %v", core.PolicyNames(), core.OfflineNames())
	}
}
