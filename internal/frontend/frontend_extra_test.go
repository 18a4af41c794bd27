package frontend_test

import (
	"testing"

	"uopsim/internal/cache"
	"uopsim/internal/frontend"
	"uopsim/internal/policy"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

func buildWith(cfg frontend.Config) (*frontend.Frontend, *uopcache.Cache) {
	uc := uopcache.New(uopcache.DefaultConfig(), policy.NewLRU())
	l1i := cache.New(cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 1})
	return frontend.New(cfg, uc, l1i), uc
}

func TestDisableUopCacheDecodesEverything(t *testing.T) {
	spec, _ := workload.Get("kafka")
	blocks := workload.GenerateSpec(spec, 10000, 0)
	cfg := frontend.DefaultConfig()
	cfg.DisableUopCache = true
	f, uc := buildWith(cfg)
	res := run(f, blocks)
	if res.Events.UopCacheHitUops != 0 {
		t.Error("disabled uop cache served uops")
	}
	if res.Events.UopCacheLookups != 0 {
		t.Error("disabled uop cache was looked up")
	}
	if uc.Stats.Insertions != 0 {
		t.Error("disabled uop cache was filled")
	}
	if res.Events.DecodedUops != res.Uops {
		t.Errorf("decoded %d of %d uops", res.Events.DecodedUops, res.Uops)
	}
}

func TestDisableSlowerThanEnable(t *testing.T) {
	spec, _ := workload.Get("kafka")
	blocks := workload.GenerateSpec(spec, 20000, 0)
	on, _ := buildWith(frontend.DefaultConfig())
	resOn := run(on, blocks)
	cfg := frontend.DefaultConfig()
	cfg.DisableUopCache = true
	off, _ := buildWith(cfg)
	resOff := run(off, blocks)
	if resOff.IPC() >= resOn.IPC() {
		t.Errorf("no-uop-cache IPC %.3f >= with-cache %.3f", resOff.IPC(), resOn.IPC())
	}
}

func TestNonInclusiveNoInvalidations(t *testing.T) {
	spec, _ := workload.Get("clang")
	blocks := workload.GenerateSpec(spec, 30000, 0)
	cfg := frontend.DefaultConfig()
	cfg.NonInclusive = true
	f, uc := buildWith(cfg)
	run(f, blocks)
	if uc.Stats.Invalidations != 0 {
		t.Errorf("non-inclusive frontend invalidated %d windows", uc.Stats.Invalidations)
	}
}

func TestEmptyTrace(t *testing.T) {
	f, _ := buildWith(frontend.DefaultConfig())
	res := run(f, nil)
	if res.Instructions != 0 || res.Uops != 0 {
		t.Errorf("empty trace produced work: %+v", res)
	}
	if res.IPC() != 0 {
		t.Error("empty trace IPC should be 0")
	}
}

func TestSingleBlock(t *testing.T) {
	f, _ := buildWith(frontend.DefaultConfig())
	res := run(f, []trace.Block{{Addr: 0x1000, Bytes: 16, NumInst: 4, NumUops: 6}})
	if res.Instructions != 4 || res.Uops != 6 {
		t.Errorf("result = instructions %d uops %d", res.Instructions, res.Uops)
	}
	if res.Cycles == 0 {
		t.Error("zero cycles")
	}
}

// TestUopBandwidthMatters: raising the uop-cache delivery width speeds up a
// loop that hits the cache with wide windows.
func TestUopBandwidthMatters(t *testing.T) {
	var blocks []trace.Block
	for i := 0; i < 2000; i++ {
		blocks = append(blocks, trace.Block{
			Addr: 0x1000, Bytes: 60, NumInst: 15, NumUops: 24,
			Kind: trace.BranchUncond, Taken: true, Target: 0x1000, BranchPC: 0x1038,
		})
	}
	narrow := frontend.DefaultConfig()
	narrow.UopDeliver = 4
	fN, _ := buildWith(narrow)
	resN := run(fN, blocks)
	wide := frontend.DefaultConfig()
	wide.UopDeliver = 16
	fW, _ := buildWith(wide)
	resW := run(fW, blocks)
	if resW.IPC() <= resN.IPC() {
		t.Errorf("wide delivery IPC %.3f <= narrow %.3f", resW.IPC(), resN.IPC())
	}
}

// TestMispredictPenaltyMatters: a larger resteer penalty must lower IPC on a
// branchy workload.
func TestMispredictPenaltyMatters(t *testing.T) {
	spec, _ := workload.Get("wordpress")
	blocks := workload.GenerateSpec(spec, 15000, 0)
	cheap := frontend.DefaultConfig()
	cheap.MispredictPenalty = 2
	fC, _ := buildWith(cheap)
	resC := run(fC, blocks)
	dear := frontend.DefaultConfig()
	dear.MispredictPenalty = 30
	fD, _ := buildWith(dear)
	resD := run(fD, blocks)
	if resD.IPC() >= resC.IPC() {
		t.Errorf("30-cycle penalty IPC %.3f >= 2-cycle %.3f", resD.IPC(), resC.IPC())
	}
}

// TestRepeatedMissGrowsWindow: a window re-requested with more micro-ops
// ends up resident as the larger window, and the frontend's write events
// equal the cache's entries written. A miss charges at least
// DecodeLatency+1 cycles, so on the cycle clock its insertion always lands
// before the next lookup: the repeat is a partial hit whose grown window
// replaces the first, and nothing coalesces.
func TestRepeatedMissGrowsWindow(t *testing.T) {
	blocks := []trace.Block{
		// PW 0x1000, 4 uops: the taken branch ends it.
		{Addr: 0x1000, Bytes: 16, NumInst: 4, NumUops: 4, Kind: trace.BranchCond, Taken: true, Target: 0x1000, BranchPC: 0x100c},
		// PW 0x1000 again, 12 uops: the not-taken branch does not end it.
		{Addr: 0x1000, Bytes: 16, NumInst: 4, NumUops: 4, Kind: trace.BranchCond, Target: 0x1000, BranchPC: 0x100c},
		{Addr: 0x1010, Bytes: 16, NumInst: 4, NumUops: 8, Kind: trace.BranchUncond, Taken: true, Target: 0x2000, BranchPC: 0x101c},
	}
	f, uc := buildWith(frontend.DefaultConfig())
	reg := telemetry.NewRegistry()
	uc.AttachMetrics(reg)
	res := run(f, blocks)
	if got := uc.Probe(trace.PW{Start: 0x1000, NumUops: 16}); got.HitUops != 12 {
		t.Fatalf("probe = %+v; want the grown 12-uop window resident", got)
	}
	if res.UopCache.Misses != 1 || res.UopCache.PartialHits != 1 {
		t.Errorf("lookups = %+v; want one miss then one partial hit", res.UopCache)
	}
	if got := reg.Counter("uopcache_coalesced_misses_total").Value(); got != 0 {
		t.Errorf("coalesced misses = %d, want 0 on the cycle clock", got)
	}
	if res.Events.UopCacheWrites != res.UopCache.EntriesWritten || res.UopCache.EntriesWritten != 3 {
		t.Errorf("writes = %d, entries written = %d; want both 3",
			res.Events.UopCacheWrites, res.UopCache.EntriesWritten)
	}
}

// boundSink checks the cache's in-flight count at every cache event.
type boundSink struct {
	uc  *uopcache.Cache
	max int
}

func (s *boundSink) Emit(telemetry.Event) { s.max = max(s.max, s.uc.InFlightCount()) }

// TestInFlightBoundTiming: over a real trace, timing mode never holds more
// than max(DecodeLatency, 1) insertions in flight at any cache event, and
// the end-of-run flush empties the queue.
func TestInFlightBoundTiming(t *testing.T) {
	spec, _ := workload.Get("kafka")
	blocks := workload.GenerateSpec(spec, 20000, 0)
	cfg := frontend.DefaultConfig()
	f, uc := buildWith(cfg)
	sink := &boundSink{uc: uc}
	uc.SetEventSink(sink)
	res := run(f, blocks)
	if res.UopCache.Insertions == 0 {
		t.Fatal("no insertions: the queue was never exercised")
	}
	if sink.max > max(cfg.DecodeLatency, 1) {
		t.Errorf("peak in flight = %d, bound %d", sink.max, max(cfg.DecodeLatency, 1))
	}
	if uc.InFlightCount() != 0 {
		t.Errorf("%d insertions left in flight after the run", uc.InFlightCount())
	}
	if res.Events.UopCacheWrites != res.UopCache.EntriesWritten {
		t.Errorf("writes = %d, entries written = %d", res.Events.UopCacheWrites, res.UopCache.EntriesWritten)
	}
}
