package uopcache_test

import (
	"math"
	"testing"

	"uopsim/internal/cache"
	"uopsim/internal/policy"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// pw builds a test window with explicit start and micro-op count.
func pw(start uint64, uops int) trace.PW {
	return trace.PW{
		Start:   start,
		NumUops: uint16(uops),
		Bytes:   uint16(uops * 4),
		NumInst: uint16(uops),
	}
}

// tinyConfig: 2 sets x 4 ways, 8 uops/entry, synchronous insertion.
func tinyConfig() uopcache.Config {
	return uopcache.Config{Entries: 8, Ways: 4, UopsPerEntry: 8, InsertDelay: 0}
}

func newTiny() *uopcache.Cache { return uopcache.New(tinyConfig(), policy.NewLRU()) }

func TestConfigValidate(t *testing.T) {
	if err := uopcache.DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []uopcache.Config{
		{Entries: 0, Ways: 8, UopsPerEntry: 8},
		{Entries: 512, Ways: 7, UopsPerEntry: 8},
		{Entries: 96, Ways: 8, UopsPerEntry: 8}, // 12 sets, not pow2
		{Entries: 512, Ways: 8, UopsPerEntry: 8, InsertDelay: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
	if got := uopcache.DefaultConfig().Sets(); got != 64 {
		t.Errorf("default sets = %d, want 64", got)
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := newTiny()
	w := pw(0x1000, 6)
	if r := c.Lookup(w); r.Kind != uopcache.ProbeMiss || r.MissUops != 6 {
		t.Errorf("first lookup = %+v", r)
	}
	if out := c.Insert(w); out != uopcache.Inserted {
		t.Fatalf("insert = %v", out)
	}
	if r := c.Lookup(w); r.Kind != uopcache.ProbeFull || r.HitUops != 6 {
		t.Errorf("post-insert lookup = %+v", r)
	}
	st := c.Stats
	if st.Lookups != 2 || st.Misses != 1 || st.FullHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.UopsRequested != 12 || st.UopsHit != 6 || st.UopsMissed != 6 {
		t.Errorf("uop stats = %+v", st)
	}
}

// TestIntermediateExitPoints: a stored larger window serves a smaller lookup
// with the same start (full hit, AMD patent behaviour).
func TestIntermediateExitPoints(t *testing.T) {
	c := newTiny()
	c.Insert(pw(0x1000, 12))
	r := c.Lookup(pw(0x1000, 5))
	if r.Kind != uopcache.ProbeFull || r.HitUops != 5 || r.MissUops != 0 {
		t.Errorf("smaller lookup on larger window = %+v", r)
	}
}

// TestPartialHit: a stored smaller window partially serves a larger lookup.
func TestPartialHit(t *testing.T) {
	c := newTiny()
	c.Insert(pw(0x1000, 4))
	r := c.Lookup(pw(0x1000, 10))
	if r.Kind != uopcache.ProbePartial || r.HitUops != 4 || r.MissUops != 6 {
		t.Errorf("partial lookup = %+v", r)
	}
	if c.Stats.PartialHits != 1 {
		t.Errorf("partial hit not counted: %+v", c.Stats)
	}
}

// TestGrowReplacesSmaller: inserting a larger same-start window replaces the
// smaller and frees/claims entries correctly.
func TestGrowReplacesSmaller(t *testing.T) {
	c := newTiny()
	c.Insert(pw(0x1000, 4)) // 1 entry
	set := c.SetIndex(0x1000)
	if c.UsedEntries(set) != 1 {
		t.Fatalf("used = %d", c.UsedEntries(set))
	}
	if out := c.Insert(pw(0x1000, 20)); out != uopcache.Inserted { // 3 entries
		t.Fatalf("grow insert = %v", out)
	}
	if c.UsedEntries(set) != 3 {
		t.Errorf("used after grow = %d, want 3", c.UsedEntries(set))
	}
	r, ok := c.ResidentFor(0x1000)
	if !ok || r.Uops != 20 || r.EntriesUsed != 3 {
		t.Errorf("resident after grow = %+v, %v", r, ok)
	}
}

// TestShrinkIsRedundant: inserting a smaller same-start window is a no-op
// (the larger window is kept, per FLACK's selective-bypass insight and the
// hardware's behaviour).
func TestShrinkIsRedundant(t *testing.T) {
	c := newTiny()
	c.Insert(pw(0x1000, 20))
	if out := c.Insert(pw(0x1000, 4)); out != uopcache.Redundant {
		t.Errorf("shrink insert = %v, want Redundant", out)
	}
	r, _ := c.ResidentFor(0x1000)
	if r.Uops != 20 {
		t.Errorf("resident shrunk to %d uops", r.Uops)
	}
}

// TestEvictionWholePW: multi-entry windows are evicted as a whole.
func TestEvictionWholePW(t *testing.T) {
	c := newTiny() // 4 ways per set
	set0 := c.SetIndex(0x1000)
	// Two 2-entry windows fill the set (start addrs chosen for same set).
	a, b := pw(0x1000, 16), pw(0x1000+0x2000, 16)
	if c.SetIndex(a.Start) != c.SetIndex(b.Start) {
		t.Fatalf("test addresses map to different sets: %d vs %d", c.SetIndex(a.Start), c.SetIndex(b.Start))
	}
	c.Insert(a)
	c.Insert(b)
	if c.UsedEntries(set0) != 4 {
		t.Fatalf("set not full: %d", c.UsedEntries(set0))
	}
	// A third 1-entry window must evict one whole window (2 entries).
	d := pw(0x1000+0x4000, 4)
	if c.SetIndex(d.Start) != set0 {
		t.Fatalf("d maps elsewhere")
	}
	c.Lookup(a) // make a MRU so b is the LRU victim
	if out := c.Insert(d); out != uopcache.Inserted {
		t.Fatalf("insert d = %v", out)
	}
	if _, ok := c.ResidentFor(b.Start); ok {
		t.Error("b should have been evicted whole")
	}
	if _, ok := c.ResidentFor(a.Start); !ok {
		t.Error("a should survive")
	}
	if c.UsedEntries(set0) != 3 {
		t.Errorf("used = %d, want 3 (2 for a + 1 for d)", c.UsedEntries(set0))
	}
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats.Evictions)
	}
}

func TestTooLarge(t *testing.T) {
	c := newTiny() // 4 ways -> max 32 uops per set
	if out := c.Insert(pw(0x1000, 40)); out != uopcache.TooLarge {
		t.Errorf("oversized insert = %v, want TooLarge", out)
	}
}

func TestInvalidateLine(t *testing.T) {
	c := newTiny()
	// Two windows in the same icache line, plus one in another line.
	c.Insert(pw(0x1000, 4))
	c.Insert(pw(0x1010, 4))
	c.Insert(pw(0x2000, 4))
	if n := c.InvalidateLine(0x1000); n != 2 {
		t.Errorf("invalidated %d windows, want 2", n)
	}
	if _, ok := c.ResidentFor(0x1000); ok {
		t.Error("0x1000 still resident")
	}
	if _, ok := c.ResidentFor(0x1010); ok {
		t.Error("0x1010 still resident")
	}
	if _, ok := c.ResidentFor(0x2000); !ok {
		t.Error("0x2000 should survive")
	}
	if c.Stats.Invalidations != 2 {
		t.Errorf("invalidation count = %d", c.Stats.Invalidations)
	}
	if n := c.InvalidateLine(0x9000); n != 0 {
		t.Errorf("invalidate of absent line = %d", n)
	}
}

// TestInvalidateLineBucketCollision invalidates one of two distinct lines
// that share a row of the cache's line-count table (they lie LineBuckets
// lines apart): only the named line's windows may go, and the survivor's
// count must still let a later invalidation find it.
func TestInvalidateLineBucketCollision(t *testing.T) {
	const turn = uopcache.LineBuckets * trace.LineSize
	cfg := tinyConfig()
	win := func(start uint64, bytes uint16) trace.PW {
		return trace.PW{Start: start, NumUops: 4, Bytes: bytes, NumInst: 4}
	}
	cases := []struct {
		name     string
		gone     trace.PW // window from the invalidated line
		kept     trace.PW // window from the colliding line
		line     uint64   // line invalidated
		sameSet  bool
		keptLine uint64 // a line of kept, invalidated last
	}{
		{"same set", win(0x1000, 16), win(0x1000+turn, 16), 0x1000, true, 0x1000 + turn},
		{"different sets", win(0x1000, 16), win(0x1010+turn, 16), 0x1000, false, 0x1000 + turn},
		// 0x1030+80 bytes spans lines 0x1000 and 0x1040; the second line
		// shares its bucket with 0x1040+turn, the line of 0x1050+turn.
		{"second line of a two-line window", win(0x1030, 80), win(0x1050+turn, 16), 0x1040, true, 0x1040 + turn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := cfg.SetIndex(tc.gone.Start) == cfg.SetIndex(tc.kept.Start); got != tc.sameSet {
				t.Fatalf("same set = %v, want %v (fix the test addresses)", got, tc.sameSet)
			}
			c := uopcache.New(cfg, policy.NewLRU())
			c.Insert(tc.gone)
			c.Insert(tc.kept)
			if n := c.InvalidateLine(tc.line); n != 1 {
				t.Fatalf("InvalidateLine(%#x) = %d, want 1", tc.line, n)
			}
			if _, ok := c.ResidentFor(tc.gone.Start); ok {
				t.Errorf("%#x still resident", tc.gone.Start)
			}
			if _, ok := c.ResidentFor(tc.kept.Start); !ok {
				t.Fatalf("%#x, from a colliding line, was evicted", tc.kept.Start)
			}
			first, last := tc.gone.Lines()
			for l := first; l <= last; l += trace.LineSize {
				if n := c.InvalidateLine(l); n != 0 {
					t.Errorf("InvalidateLine(%#x) after removal = %d, want 0", l, n)
				}
			}
			if n := c.InvalidateLine(tc.keptLine); n != 1 {
				t.Errorf("InvalidateLine(%#x) = %d, want 1", tc.keptLine, n)
			}
			if c.ResidentCount() != 0 || c.Stats.Invalidations != 2 {
				t.Errorf("residents %d, invalidations %d; want 0 and 2", c.ResidentCount(), c.Stats.Invalidations)
			}
		})
	}
}

// TestCapacityNeverExceeded is the core structural invariant: entries used
// per set never exceed the way count, under heavy mixed-size traffic.
func TestCapacityNeverExceeded(t *testing.T) {
	cfg := uopcache.Config{Entries: 32, Ways: 8, UopsPerEntry: 8, InsertDelay: 0}
	c := uopcache.New(cfg, policy.NewLRU())
	state := uint64(12345)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for i := 0; i < 20000; i++ {
		start := uint64(0x1000 + next(600)*16)
		uops := 1 + next(32)
		w := pw(start, uops)
		c.Lookup(w)
		c.Insert(w)
		for s := 0; s < cfg.Sets(); s++ {
			if u := c.UsedEntries(s); u > cfg.Ways {
				t.Fatalf("set %d uses %d entries > %d ways (iter %d)", s, u, cfg.Ways, i)
			}
		}
	}
	if c.TotalUsedEntries() > cfg.Entries {
		t.Errorf("total used %d > %d", c.TotalUsedEntries(), cfg.Entries)
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	c := newTiny()
	c.Insert(pw(0x1000, 4))
	before := c.Stats
	r := c.Probe(pw(0x1000, 4))
	if r.Kind != uopcache.ProbeFull {
		t.Errorf("probe = %+v", r)
	}
	if c.Stats != before {
		t.Error("Probe mutated statistics")
	}
	if r := c.Probe(pw(0x5000, 4)); r.Kind != uopcache.ProbeMiss {
		t.Errorf("probe absent = %+v", r)
	}
	c.Insert(pw(0x3000, 4))
	if r := c.Probe(pw(0x3000, 9)); r.Kind != uopcache.ProbePartial || r.HitUops != 4 {
		t.Errorf("probe partial = %+v", r)
	}
}

// --- Asynchronous-insertion (in-flight queue) tests ---

func TestBehaviorInsertDelay(t *testing.T) {
	cfg := tinyConfig()
	cfg.InsertDelay = 3
	c := uopcache.New(cfg, policy.NewLRU())
	b := uopcache.NewBehavior(c, nil)
	w := pw(0x1000, 4)
	other := pw(0x7000, 4)
	pt := uopcache.Prepare(cfg, []trace.PW{w, w, other, w})
	b.Access(pt, 0) // miss, schedules insertion due at lookup 4
	if c.InFlightCount() != 1 {
		t.Fatal("insertion not in flight")
	}
	// Lookups 2 and 3: w is still absent (asynchrony) — these miss.
	if r := b.Access(pt, 1); r.Kind != uopcache.ProbeMiss {
		t.Errorf("lookup 2 = %+v, want miss (still in decode pipe)", r)
	}
	if r := b.Access(pt, 2); r.Kind != uopcache.ProbeMiss {
		t.Errorf("lookup 3 = %+v", r)
	}
	// Lookup 4: the insertion lands before the probe — now a hit.
	if r := b.Access(pt, 3); r.Kind != uopcache.ProbeFull {
		t.Errorf("lookup 4 = %+v, want full hit after completion", r)
	}
	if c.InFlightCount() != 1 {
		t.Errorf("%d in flight after completion, want only the other window's", c.InFlightCount())
	}
}

// TestBehaviorCoalescing: repeated misses on an in-flight window must not
// duplicate insertions, and a larger re-request grows the pending window.
func TestBehaviorCoalescing(t *testing.T) {
	cfg := tinyConfig()
	cfg.InsertDelay = 5
	c := uopcache.New(cfg, policy.NewLRU())
	reg := telemetry.NewRegistry()
	c.AttachMetrics(reg)
	b := uopcache.NewBehavior(c, nil)
	// The 12-uop window is a larger overlapping re-request while the
	// 4-uop one is in flight.
	b.Run(uopcache.Prepare(cfg, []trace.PW{pw(0x1000, 4), pw(0x1000, 12), pw(0x1000, 6)}))
	if c.Stats.Insertions != 1 {
		t.Errorf("insertions = %d, want 1 (coalesced)", c.Stats.Insertions)
	}
	if got := reg.Counter("uopcache_coalesced_misses_total").Value(); got != 2 {
		t.Errorf("coalesced misses = %d, want 2", got)
	}
	r, ok := c.ResidentFor(0x1000)
	if !ok || r.Uops != 12 {
		t.Errorf("resident = %+v, %v; want grown to 12 uops", r, ok)
	}
	if r.EntriesUsed != 2 {
		t.Errorf("resident occupies %d entries, want the grown window's 2", r.EntriesUsed)
	}
}

// TestScheduleCycleClock drives the queue the way the timing frontend does:
// due times in cycles, set and footprint derived by Schedule, and a repeat
// inside the delay coalescing into one grown insertion.
func TestScheduleCycleClock(t *testing.T) {
	c := newTiny()
	c.Schedule(pw(0x1000, 4), 5)
	c.Schedule(pw(0x1000, 12), 7) // coalesces: due stays 5
	c.Schedule(pw(0x2000, 4), 9)
	c.Complete(4)
	if c.Stats.Insertions != 0 || c.InFlightCount() != 2 {
		t.Fatalf("early completion: %d insertions, %d in flight", c.Stats.Insertions, c.InFlightCount())
	}
	c.Complete(5)
	if r, ok := c.ResidentFor(0x1000); !ok || r.Uops != 12 {
		t.Errorf("resident = %+v, %v; want the grown 12-uop window", r, ok)
	}
	if _, ok := c.ResidentFor(0x2000); ok || c.InFlightCount() != 1 {
		t.Error("completion order wrong: only the due window should land")
	}
	c.Complete(math.MaxUint64)
	if c.Stats.Insertions != 2 || c.Stats.EntriesWritten != 3 || c.InFlightCount() != 0 {
		t.Errorf("after flush: %+v, %d in flight", c.Stats, c.InFlightCount())
	}
}

// TestScheduleGrowsQueue: more windows in flight than the queue was sized
// for (a delay longer than InsertDelay) must all land, oldest first.
func TestScheduleGrowsQueue(t *testing.T) {
	cfg := tinyConfig()
	cfg.Entries, cfg.Ways = 64, 8 // 8 sets: every window fits
	c := uopcache.New(cfg, policy.NewLRU())
	sink := &recordSink{}
	c.SetEventSink(sink)
	for i := uint64(0); i < 6; i++ {
		c.Schedule(pw(0x1000+i*0x40, 4), 10+i)
	}
	if c.InFlightCount() != 6 {
		t.Fatalf("in flight = %d, want 6", c.InFlightCount())
	}
	c.Complete(math.MaxUint64)
	if len(sink.events) != 6 {
		t.Fatalf("events = %d, want 6 inserts", len(sink.events))
	}
	for i, e := range sink.events {
		if e.Kind != telemetry.EventInsert || e.Key != 0x1000+uint64(i)*0x40 {
			t.Errorf("event %d = %v %#x, want insert of %#x", i, e.Kind, e.Key, 0x1000+i*0x40)
		}
	}
}

type recordSink struct{ events []telemetry.Event }

func (s *recordSink) Emit(e telemetry.Event) { s.events = append(s.events, e) }

func TestBehaviorCancelInFlight(t *testing.T) {
	cfg := tinyConfig()
	cfg.InsertDelay = 4
	c := uopcache.New(cfg, policy.NewLRU())
	b := uopcache.NewBehavior(c, nil)
	b.Access(uopcache.Prepare(cfg, []trace.PW{pw(0x1000, 4)}), 0)
	if !c.CancelInFlight(0x1000) {
		t.Fatal("cancel failed")
	}
	if c.CancelInFlight(0x1000) {
		t.Error("double cancel should fail")
	}
	b.Flush()
	if _, ok := c.ResidentFor(0x1000); ok {
		t.Error("cancelled window was inserted")
	}
	if c.Stats.Bypasses != 1 {
		t.Errorf("bypasses = %d, want 1", c.Stats.Bypasses)
	}
	if c.CancelInFlight(0x9999) {
		t.Error("cancel of unknown window should fail")
	}
}

// TestMissOnCancelledStaysCancelled: a miss that coalesces into a
// cancelled in-flight window does not revive it — the (grown) window is
// still bypassed on arrival, once.
func TestMissOnCancelledStaysCancelled(t *testing.T) {
	cfg := tinyConfig()
	cfg.InsertDelay = 4
	c := uopcache.New(cfg, policy.NewLRU())
	b := uopcache.NewBehavior(c, nil)
	pt := uopcache.Prepare(cfg, []trace.PW{pw(0x1000, 4), pw(0x1000, 12)})
	b.Access(pt, 0)
	c.CancelInFlight(0x1000)
	if r := b.Access(pt, 1); r.Kind != uopcache.ProbeMiss {
		t.Fatalf("repeat lookup = %+v, want miss", r)
	}
	if c.CancelInFlight(0x1000) || c.InFlightCount() != 1 {
		t.Errorf("repeat miss revived or duplicated the cancelled window (%d in flight)", c.InFlightCount())
	}
	b.Flush()
	if c.Stats.Insertions != 0 || c.Stats.Bypasses != 1 {
		t.Errorf("insertions = %d, bypasses = %d; want 0 and 1", c.Stats.Insertions, c.Stats.Bypasses)
	}
}

// TestInFlightBoundKafka: over a real trace, behaviour mode never holds
// more than max(InsertDelay, 1) insertions in flight.
func TestInFlightBoundKafka(t *testing.T) {
	spec, err := workload.Get("kafka")
	if err != nil {
		t.Fatal(err)
	}
	pws := trace.FormPWs(workload.GenerateSpec(spec, 20000, 0), 0)
	for _, delay := range []int{0, 1, 3, 8} {
		cfg := uopcache.DefaultConfig()
		cfg.InsertDelay = delay
		c := uopcache.New(cfg, policy.NewLRU())
		b := uopcache.NewBehavior(c, nil)
		pt := uopcache.Prepare(cfg, pws)
		peak := 0
		for i := 0; i < pt.Len(); i++ {
			b.Access(pt, i)
			peak = max(peak, c.InFlightCount())
		}
		if peak > max(delay, 1) {
			t.Errorf("delay %d: %d insertions in flight, bound %d", delay, peak, max(delay, 1))
		}
		if delay > 0 && peak != delay {
			t.Errorf("delay %d: peak in flight %d; the trace should fill the pipe", delay, peak)
		}
	}
}

// TestBehaviorInclusion: evicting an L1i line must invalidate the
// corresponding micro-op cache windows (the inclusive design).
func TestBehaviorInclusion(t *testing.T) {
	cfg := tinyConfig()
	cfg.InsertDelay = 0
	c := uopcache.New(cfg, policy.NewLRU())
	// Tiny direct-mapped icache: 2 lines of 64B.
	ic := cache.New(cache.Config{SizeBytes: 128, LineBytes: 64, Ways: 1})
	b := uopcache.NewBehavior(c, ic)
	w := pw(0x0000, 4) // line 0x0000, icache set 0
	// The third window touches a conflicting icache line (same set 0).
	pt := uopcache.Prepare(cfg, []trace.PW{w, w, pw(0x0080, 4)})
	b.Access(pt, 0)
	b.Access(pt, 1) // inserted by now; hit
	if _, ok := c.ResidentFor(w.Start); !ok {
		t.Fatal("window not resident")
	}
	b.Access(pt, 2)
	if _, ok := c.ResidentFor(w.Start); ok {
		t.Error("window survived L1i eviction of its line (inclusion violated)")
	}
	if c.Stats.Invalidations == 0 {
		t.Error("no invalidations counted")
	}
}

func TestBehaviorRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.InsertDelay = 1
	c := uopcache.New(cfg, policy.NewLRU())
	b := uopcache.NewBehavior(c, nil)
	var seq []trace.PW
	for i := 0; i < 100; i++ {
		seq = append(seq, pw(0x1000, 4), pw(0x2000, 6))
	}
	st := b.Run(uopcache.Prepare(cfg, seq))
	if st.Lookups != 200 {
		t.Errorf("lookups = %d", st.Lookups)
	}
	if st.UopMissRate() >= 0.5 {
		t.Errorf("loopy trace should mostly hit, miss rate %.2f", st.UopMissRate())
	}
	if c.Clock() != 200 {
		t.Errorf("Clock() = %d", c.Clock())
	}
}

func TestStatsUopMissRateEmpty(t *testing.T) {
	var s uopcache.Stats
	if s.UopMissRate() != 0 {
		t.Error("empty stats miss rate should be 0")
	}
}
