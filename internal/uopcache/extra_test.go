package uopcache_test

import (
	"testing"
	"testing/quick"

	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

func TestUtilizationAndOccupancy(t *testing.T) {
	c := uopcache.New(uopcache.Config{Entries: 8, Ways: 4, UopsPerEntry: 8}, policy.NewLRU())
	used := func() int { return c.UsedEntries(0) + c.UsedEntries(1) }
	if c.Utilization() != 0 || used() != 0 {
		t.Error("empty cache should have zero utilization/occupancy")
	}
	c.Insert(pw(0x1000, 8)) // 1 entry, fully packed
	if got := c.Utilization(); got != 1.0 {
		t.Errorf("utilization = %v, want 1.0", got)
	}
	c.Insert(pw(0x2000, 9)) // 2 entries, 9/16 packed
	// Total: 17 uops over 3 entries (24 capacity).
	if got := c.Utilization(); got != 17.0/24.0 {
		t.Errorf("utilization = %v, want %v", got, 17.0/24.0)
	}
	if got := used(); got != 3 {
		t.Errorf("occupied entries = %d, want 3 of 8", got)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := newTiny()
	c.Insert(pw(0x1000, 4))
	c.Lookup(pw(0x1000, 4))
	c.ResetStats()
	if c.Stats.Lookups != 0 {
		t.Error("stats not reset")
	}
	if r := c.Lookup(pw(0x1000, 4)); r.Kind != uopcache.ProbeFull {
		t.Error("contents lost on ResetStats")
	}
}

// TestQuickAccountingInvariants drives random operation sequences (derived
// from a quick-checked seed) and verifies the cache's accounting invariants.
func TestQuickAccountingInvariants(t *testing.T) {
	f := func(seed uint64, delayRaw uint8) bool {
		cfg := uopcache.Config{Entries: 32, Ways: 8, UopsPerEntry: 8, InsertDelay: int(delayRaw % 6)}
		c := uopcache.New(cfg, policy.NewLRU())
		seq := make([]trace.PW, 0, 3000)
		state := seed | 1
		for i := 0; i < 3000; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			start := uint64(0x1000 + (state>>33)%300*16)
			uops := 1 + int((state>>17)%24)
			seq = append(seq, pw(start, uops))
		}
		uopcache.NewBehavior(c, nil, uopcache.Prepare(cfg, seq)).Run()
		st := c.Stats
		if st.UopsHit+st.UopsMissed != st.UopsRequested {
			return false
		}
		if st.Lookups != st.FullHits+st.PartialHits+st.Misses {
			return false
		}
		for s := range cfg.Sets() {
			if c.UsedEntries(s) > cfg.Ways {
				return false
			}
		}
		u := c.Utilization()
		return u >= 0 && u <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickGrowNeverShrinks: for any pair of same-start windows, the
// resident after both insertions has the larger micro-op count.
func TestQuickGrowNeverShrinks(t *testing.T) {
	f := func(a, b uint8) bool {
		ua := int(a%31) + 1
		ub := int(b%31) + 1
		c := uopcache.New(uopcache.Config{Entries: 8, Ways: 8, UopsPerEntry: 8}, policy.NewLRU())
		c.Insert(pw(0x1000, ua))
		c.Insert(pw(0x1000, ub))
		return storedUops(c, 0x1000) == max(ua, ub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSigCoversColumnsOnly: Sig hashes only what the prepared columns
// depend on, so geometries with the same set count share a trace.
func TestSigCoversColumnsOnly(t *testing.T) {
	base := uopcache.Config{Entries: 512, Ways: 8, UopsPerEntry: 8}
	same := uopcache.Config{Entries: 1024, Ways: 16, UopsPerEntry: 8, InsertDelay: 7}
	if base.Sig() != same.Sig() {
		t.Error("512/8 and 1024/16 (both 64 sets) have different Sigs")
	}
	fewerSets := uopcache.Config{Entries: 512, Ways: 16, UopsPerEntry: 8}
	if base.Sig() == fewerSets.Sig() {
		t.Error("512/8 and 512/16 (64 vs 32 sets) share a Sig")
	}
	compact := base
	compact.Compaction = true
	if base.Sig() == compact.Sig() {
		t.Error("toggling compaction leaves Sig unchanged")
	}
}

// TestPreparedForReuse: PreparedFor hands back the caller's trace only when
// it matches the geometry and the exact slice, and builds one otherwise.
func TestPreparedForReuse(t *testing.T) {
	cfg := uopcache.Config{Entries: 512, Ways: 8, UopsPerEntry: 8}
	seq := []trace.PW{pw(0x1000, 4), pw(0x2000, 9), pw(0x1000, 4)}
	pt := uopcache.Prepare(cfg, seq)
	if got := uopcache.PreparedFor(cfg, seq, pt); got != pt {
		t.Error("matching trace was not reused")
	}
	wide := uopcache.Config{Entries: 1024, Ways: 16, UopsPerEntry: 8}
	if got := uopcache.PreparedFor(wide, seq, pt); got != pt {
		t.Error("trace with an equal Sig was not reused")
	}
	narrow := uopcache.Config{Entries: 512, Ways: 16, UopsPerEntry: 8}
	if got := uopcache.PreparedFor(narrow, seq, pt); got == pt || got.Sig() != narrow.Sig() {
		t.Error("wrong-geometry trace was reused")
	}
	clone := append([]trace.PW(nil), seq...)
	if got := uopcache.PreparedFor(cfg, clone, pt); got == pt || !got.SameSequence(clone) {
		t.Error("trace over a different slice was reused")
	}
	if got := uopcache.PreparedFor(cfg, seq, nil); got == nil || !got.SameSequence(seq) {
		t.Error("nil trace was not built")
	}
}
