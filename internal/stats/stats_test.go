package stats_test

import (
	"math/rand"
	"testing"

	"uopsim/internal/policy"
	"uopsim/internal/stats"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

func pw(start uint64, uops int) trace.PW {
	return trace.PW{Start: start, NumUops: uint16(uops), Bytes: uint16(uops * 4),
		NumInst: uint16(uops)}
}

// lruMisses is the canonical MissCounter.
func lruMisses(pws []trace.PW, cfg uopcache.Config) uint64 {
	c := uopcache.New(cfg, policy.NewLRU())
	return uopcache.NewBehavior(c, nil).Run(uopcache.Prepare(cfg, pws)).Misses
}

func TestClassifyColdOnly(t *testing.T) {
	// Working set fits: every miss is cold.
	cfg := uopcache.Config{Entries: 64, Ways: 8, UopsPerEntry: 8, InsertDelay: 0}
	var s []trace.PW
	for r := 0; r < 10; r++ {
		for i := 0; i < 8; i++ {
			s = append(s, pw(uint64(0x1000+i*0x400), 4))
		}
	}
	m := stats.Classify(s, cfg, lruMisses)
	if m.Cold != 8 {
		t.Errorf("cold = %d, want 8", m.Cold)
	}
	if m.Capacity != 0 {
		t.Errorf("capacity = %d, want 0 (fits)", m.Capacity)
	}
	cold, capacity, conflict := m.Fractions()
	if cold == 0 || capacity != 0 || conflict != 0 {
		t.Errorf("fractions = %v %v %v", cold, capacity, conflict)
	}
}

func TestClassifyCapacityDominates(t *testing.T) {
	// Cycle a working set much larger than a fully-associative cache:
	// capacity misses dominate.
	cfg := uopcache.Config{Entries: 16, Ways: 4, UopsPerEntry: 8, InsertDelay: 0}
	var s []trace.PW
	for r := 0; r < 20; r++ {
		for i := 0; i < 64; i++ {
			s = append(s, pw(uint64(0x1000+i*16), 4))
		}
	}
	m := stats.Classify(s, cfg, lruMisses)
	if m.Capacity == 0 {
		t.Fatalf("no capacity misses: %+v", m)
	}
	if m.Capacity < m.Conflict {
		t.Errorf("capacity (%d) should dominate conflict (%d) for a cyclic scan", m.Capacity, m.Conflict)
	}
	if m.Cold != 64 {
		t.Errorf("cold = %d", m.Cold)
	}
}

func TestClassifyConflictAppears(t *testing.T) {
	// Windows that all land in one set of a 4-set cache: conflicts.
	cfg := uopcache.Config{Entries: 32, Ways: 8, UopsPerEntry: 8, InsertDelay: 0}
	sets := cfg.Sets()
	var s []trace.PW
	// 12 windows mapping to set 0 (stride = sets*16 in the >>4 index).
	stride := uint64(sets * 16)
	for r := 0; r < 30; r++ {
		for i := 0; i < 12; i++ {
			s = append(s, pw(0x1000+uint64(i)*stride, 4))
		}
	}
	m := stats.Classify(s, cfg, lruMisses)
	if m.Conflict == 0 {
		t.Errorf("expected conflict misses: %+v", m)
	}
}

// counterBy returns a MissCounter reporting fa misses for the
// fully-associative shadow (Ways == Entries) and total for the real
// geometry, letting the clamp arithmetic be pinned exactly.
func counterBy(total, fa uint64) stats.MissCounter {
	return func(_ []trace.PW, cfg uopcache.Config) uint64 {
		if cfg.Ways == cfg.Entries {
			return fa
		}
		return total
	}
}

// TestClassifyClampCapacity exercises the anomaly clamp where the FA shadow
// misses MORE than the set-associative cache (a Belady/LRU anomaly): the
// class sum would exceed the total, and the excess comes out of capacity.
func TestClassifyClampCapacity(t *testing.T) {
	cfg := uopcache.Config{Entries: 64, Ways: 4, UopsPerEntry: 8}
	// cold=2, fa=6, total=5: capacity = 6-2 = 4, conflict = 0 (total < fa),
	// sum 6 > total 5, over = 1 <= capacity, so capacity drops to 3.
	s := []trace.PW{pw(0x10, 4), pw(0x20, 4)}
	m := stats.Classify(s, cfg, counterBy(5, 6))
	want := stats.MissClassification{Cold: 2, Capacity: 3, Conflict: 0, Total: 5}
	if m != want {
		t.Fatalf("Classify = %+v, want %+v", m, want)
	}
	cold, capacity, conflict := m.Fractions()
	if sum := cold + capacity + conflict; sum < 0.999 || sum > 1.001 {
		t.Errorf("clamped fractions sum to %v, want 1", sum)
	}
}

// TestClassifyClampConflict exercises the deeper clamp: the FA shadow misses
// fewer times than there are cold misses, so even zeroing conflict cannot
// balance the books and capacity becomes total - cold.
func TestClassifyClampConflict(t *testing.T) {
	cfg := uopcache.Config{Entries: 64, Ways: 4, UopsPerEntry: 8}
	// cold=3, fa=1, total=4: capacity = 0 (fa < cold), conflict = 3,
	// sum 6 > total 4, over = 2 > capacity 0, so conflict = 0 and
	// capacity = total - cold = 1.
	s := []trace.PW{pw(0x10, 4), pw(0x20, 4), pw(0x30, 4)}
	m := stats.Classify(s, cfg, counterBy(4, 1))
	want := stats.MissClassification{Cold: 3, Capacity: 1, Conflict: 0, Total: 4}
	if m != want {
		t.Fatalf("Classify = %+v, want %+v", m, want)
	}
}

func TestReuseDistancesSimple(t *testing.T) {
	// Sequence: A B A -> A's reuse distance is 1 (B in between).
	h := stats.ReuseDistances([]uint64{1, 2, 1}, 8)
	if h.ColdAccesses != 2 {
		t.Errorf("cold = %d", h.ColdAccesses)
	}
	if h.Total != 1 || h.Buckets[1] != 1 {
		t.Errorf("histogram = %+v", h)
	}
}

func TestReuseDistancesImmediate(t *testing.T) {
	h := stats.ReuseDistances([]uint64{7, 7, 7}, 4)
	if h.Buckets[0] != 2 {
		t.Errorf("immediate reuse should have distance 0: %+v", h)
	}
}

func TestReuseDistancesOverflow(t *testing.T) {
	var keys []uint64
	keys = append(keys, 99)
	for i := 0; i < 50; i++ {
		keys = append(keys, uint64(i))
	}
	keys = append(keys, 99) // distance 50 > maxBucket 8
	h := stats.ReuseDistances(keys, 8)
	if h.Buckets[8] != 1 {
		t.Errorf("overflow bucket = %d", h.Buckets[8])
	}
	if got := h.FracAbove(8); got != 0 {
		// Overflow bucket is index 8; FracAbove(8) counts nothing above it.
		t.Errorf("FracAbove(8) = %v", got)
	}
	if got := h.FracAbove(7); got != 1 {
		t.Errorf("FracAbove(7) = %v, want 1", got)
	}
}

// TestReuseDistancesAgainstBruteForce cross-checks the Fenwick algorithm.
func TestReuseDistancesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 800)
	for i := range keys {
		keys[i] = uint64(rng.Intn(40))
	}
	const maxB = 16
	got := stats.ReuseDistances(keys, maxB)
	want := stats.ReuseHistogram{Buckets: make([]uint64, maxB+1)}
	for i, k := range keys {
		prev := -1
		for j := i - 1; j >= 0; j-- {
			if keys[j] == k {
				prev = j
				break
			}
		}
		if prev < 0 {
			want.ColdAccesses++
			continue
		}
		distinct := map[uint64]struct{}{}
		for j := prev + 1; j < i; j++ {
			distinct[keys[j]] = struct{}{}
		}
		d := len(distinct)
		if d >= maxB {
			want.Buckets[maxB]++
		} else {
			want.Buckets[d]++
		}
		want.Total++
	}
	if got.ColdAccesses != want.ColdAccesses || got.Total != want.Total {
		t.Fatalf("counts: got %+v want %+v", got, want)
	}
	for i := range got.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: got %d want %d", i, got.Buckets[i], want.Buckets[i])
		}
	}
}

func TestKeyExtractors(t *testing.T) {
	blocks := []trace.Block{
		{Addr: 0x1000, Bytes: 16, NumInst: 4, NumUops: 4, Kind: trace.BranchCond, Taken: true, Target: 0x2000, BranchPC: 0x100c},
		{Addr: 0x2000, Bytes: 16, NumInst: 4, NumUops: 4},
	}
	if got := stats.BranchKeys(blocks); len(got) != 1 || got[0] != 0x100c {
		t.Errorf("BranchKeys = %v", got)
	}
	if got := stats.LineKeys(blocks); len(got) != 2 || got[0] != 0x1000 || got[1] != 0x2000 {
		t.Errorf("LineKeys = %v", got)
	}
	pws := []trace.PW{pw(0x10, 1), pw(0x20, 1)}
	if got := stats.PWKeys(pws); len(got) != 2 || got[1] != 0x20 {
		t.Errorf("PWKeys = %v", got)
	}
}

func TestHotnessDeciles(t *testing.T) {
	// 20 windows: one very hot, the rest cold. Outcomes: hot hits, cold
	// misses. Decile 0 must have a high hit rate, late deciles low.
	var pws []trace.PW
	var outs []uopcache.ProbeResult
	for i := 0; i < 100; i++ {
		pws = append(pws, pw(0x1000, 4))
		outs = append(outs, uopcache.ProbeResult{Kind: uopcache.ProbeFull, HitUops: 4})
	}
	for i := 0; i < 19; i++ {
		pws = append(pws, pw(uint64(0x2000+i*16), 4))
		outs = append(outs, uopcache.ProbeResult{Kind: uopcache.ProbeMiss, MissUops: 4})
	}
	d := stats.HotnessDeciles(pws, outs)
	if d[0].HitRate() < 0.99 {
		t.Errorf("hot decile hit rate %.2f", d[0].HitRate())
	}
	if d[9].HitRate() > 0.01 {
		t.Errorf("cold decile hit rate %.2f", d[9].HitRate())
	}
	var lookups uint64
	for _, x := range d {
		lookups += x.Lookups
	}
	if lookups != uint64(len(pws)) {
		t.Errorf("decile lookups %d != %d", lookups, len(pws))
	}
}

func TestHotnessDecilesEmptyOutcome(t *testing.T) {
	d := stats.HotnessDeciles([]trace.PW{pw(1, 1)}, nil)
	for _, x := range d {
		if x.Lookups != 0 {
			t.Error("no outcomes should yield empty deciles")
		}
	}
	if (stats.DecileStat{}).HitRate() != 0 {
		t.Error("empty decile hit rate")
	}
}
