package offline

import (
	"math/rand"
	"testing"

	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

func pw(start uint64, uops int) trace.PW {
	return trace.PW{Start: start, NumUops: uint16(uops), Bytes: uint16(uops * 4),
		NumInst: uint16(uops)}
}

// seq builds a lookup sequence from (start, uops) pairs.
func seq(pairs ...[2]uint64) []trace.PW {
	out := make([]trace.PW, len(pairs))
	for i, p := range pairs {
		out[i] = pw(p[0], int(p[1]))
	}
	return out
}

func tinyCfg() uopcache.Config {
	return uopcache.Config{Entries: 2, Ways: 2, UopsPerEntry: 8, InsertDelay: 0}
}

func TestOracleNextUse(t *testing.T) {
	s := seq([2]uint64{10, 1}, [2]uint64{20, 1}, [2]uint64{10, 1}, [2]uint64{30, 1}, [2]uint64{10, 1})
	o := NewOracle(uopcache.Prepare(tinyCfg(), s))
	o.Advance(1)
	if got := o.NextUse(10); got != 2 {
		t.Errorf("NextUse(10)@1 = %d, want 2", got)
	}
	if got := o.NextUse(20); got != 1 {
		t.Errorf("NextUse(20)@1 = %d, want 1 (inclusive)", got)
	}
	o.Advance(3)
	if got := o.NextUse(10); got != 4 {
		t.Errorf("NextUse(10)@3 = %d, want 4", got)
	}
	if got := o.NextUse(20); got != NoNextUse {
		t.Errorf("NextUse(20)@3 = %d, want none", got)
	}
	o.Advance(4)
	if got := o.NextUse(10); got != 4 {
		t.Errorf("NextUse(10)@4 = %d, want 4 (inclusive)", got)
	}
	o.Advance(5)
	if got := o.NextUse(10); got != NoNextUse {
		t.Errorf("NextUse(10)@5 = %d, want none", got)
	}
	if got := o.NextUse(99); got != NoNextUse {
		t.Errorf("NextUse(unknown) = %d", got)
	}
	if o.Lookups(10) != 3 || o.Lookups(99) != 0 {
		t.Error("Lookups counts wrong")
	}
	if o.Pos() != 5 {
		t.Error("Pos")
	}
}

// TestOracleAgainstBruteForce cross-checks NextUse on a random trace.
func TestOracleAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s []trace.PW
	for i := 0; i < 2000; i++ {
		s = append(s, pw(uint64(rng.Intn(50)*16+0x1000), 4))
	}
	o := NewOracle(uopcache.Prepare(tinyCfg(), s))
	for i := 0; i < len(s); i++ {
		o.Advance(i)
		// Check a handful of keys at each position.
		for k := 0; k < 5; k++ {
			key := uint64(rng.Intn(50)*16 + 0x1000)
			want := NoNextUse
			for j := i; j < len(s); j++ {
				if s[j].Start == key {
					want = j
					break
				}
			}
			if got := o.NextUse(key); got != want {
				t.Fatalf("pos %d key %#x: NextUse = %d, want %d", i, key, got, want)
			}
		}
	}
}

// TestBeladyKeepsSoonReused: classic MIN behaviour on equal-size windows.
func TestBeladyKeepsSoonReused(t *testing.T) {
	// Cache: 1 set, 2 ways/entries. Windows A, B resident; C arrives.
	// Future: A reused soon, B never -> B must be the victim.
	a, b, c := uint64(0x1000), uint64(0x2000), uint64(0x3000)
	s := seq([2]uint64{a, 4}, [2]uint64{b, 4}, [2]uint64{c, 4}, [2]uint64{a, 4}, [2]uint64{a, 4})
	res := RunBelady(s, tinyCfg(), Options{})
	// Lookups: A miss, B miss, C miss (evicts B), A hit, A hit.
	if res.Stats.FullHits != 2 {
		t.Errorf("hits = %d, want 2 (stats %+v)", res.Stats.FullHits, res.Stats)
	}
}

// TestBeladyBeatsLRUOnScan: the classic looping-scan pattern where LRU gets
// zero hits but MIN retains part of the working set.
func TestBeladyBeatsLRUOnScan(t *testing.T) {
	cfg := uopcache.Config{Entries: 4, Ways: 4, UopsPerEntry: 8, InsertDelay: 0}
	// 6 windows cycled repeatedly through a 4-entry set: LRU thrashes.
	var s []trace.PW
	starts := []uint64{0x1000, 0x1010, 0x1020, 0x1030, 0x1040, 0x1050}
	for r := 0; r < 50; r++ {
		for _, st := range starts {
			s = append(s, pw(st, 4))
		}
	}
	bel := RunBelady(s, cfg, Options{})
	if bel.Stats.UopMissRate() > 0.5 {
		t.Errorf("Belady miss rate %.2f on cyclic scan, want < 0.5", bel.Stats.UopMissRate())
	}
}

// TestDecisionsRespectCapacity: the keep plan never exceeds per-set entry
// capacity at any point in time — the min-cost-flow inner-edge constraint.
func TestDecisionsRespectCapacity(t *testing.T) {
	cfg := uopcache.Config{Entries: 16, Ways: 8, UopsPerEntry: 8, InsertDelay: 0}
	rng := rand.New(rand.NewSource(4))
	var s []trace.PW
	for i := 0; i < 4000; i++ {
		s = append(s, pw(uint64(0x1000+rng.Intn(120)*16), 1+rng.Intn(24)))
	}
	for _, fold := range []bool{false, true} {
		dec := ComputeDecisionsPrepared(nil, uopcache.Prepare(cfg, s), cfg, CostVC, fold, 0, 1)
		// Recompute per-set residency over time.
		type iv struct{ from, to, size int }
		perSet := map[int][]iv{}
		lastPos := map[uint64]int{}
		lastSize := map[uint64]int{}
		prefixMax := map[uint64]int{}
		idOf := func(p trace.PW) uint64 {
			if fold {
				return p.Start
			}
			return p.Start ^ (uint64(p.NumUops) << 48)
		}
		for i, p := range s {
			id := idOf(p)
			u := int(p.NumUops)
			if fold {
				// The plan sizes folded intervals by the prefix
				// max of the variants seen so far.
				if u > prefixMax[p.Start] {
					prefixMax[p.Start] = u
				}
				u = prefixMax[p.Start]
			}
			if j, ok := lastPos[id]; ok && dec.Keep[j] {
				size := (lastSize[id] + 7) / 8
				set := cfg.SetIndex(p.Start)
				perSet[set] = append(perSet[set], iv{from: j, to: i, size: size})
			}
			lastPos[id] = i
			lastSize[id] = u
		}
		for set, ivs := range perSet {
			// Sweep: at each lookup index, total size of covering
			// kept intervals must be <= ways.
			deltas := map[int]int{}
			for _, v := range ivs {
				deltas[v.from] += v.size
				deltas[v.to] -= v.size
			}
			points := make([]int, 0, len(deltas))
			for p := range deltas {
				points = append(points, p)
			}
			// Insertion-sort the points (small).
			for i := 1; i < len(points); i++ {
				for j := i; j > 0 && points[j] < points[j-1]; j-- {
					points[j], points[j-1] = points[j-1], points[j]
				}
			}
			occ := 0
			for _, p := range points {
				occ += deltas[p]
				if occ > cfg.Ways {
					t.Fatalf("fold=%v set %d: kept plan uses %d entries > %d ways at pos %d",
						fold, set, occ, cfg.Ways, p)
				}
			}
		}
	}
}

// TestDecisionsKeepHotLoop: a tight loop that fits must be fully kept.
func TestDecisionsKeepHotLoop(t *testing.T) {
	cfg := tinyCfg()
	var s []trace.PW
	for i := 0; i < 20; i++ {
		s = append(s, pw(0x1000, 4))
	}
	dec := ComputeDecisionsPrepared(nil, uopcache.Prepare(cfg, s), cfg, CostOHR, false, 0, 1)
	for i := 0; i < len(s)-1; i++ {
		if !dec.Keep[i] {
			t.Errorf("position %d of a fitting loop not kept", i)
		}
	}
	if dec.Keep[len(s)-1] {
		t.Error("final lookup has no next use; must not be kept")
	}
	if dec.KeptFraction() <= 0.9 {
		t.Errorf("kept fraction = %.2f", dec.KeptFraction())
	}
}

// TestVariableCostPrefersCheapMisses reproduces the paper's Fig. 3 example:
// with capacity 2, windows A (cost 1), C (cost 4) resident and lookups
// B B B A A C (B cost 1), the cost-aware plan sacrifices the cheap windows
// and keeps C, while the OHR plan treats all equally.
func TestVariableCostPrefersCheapMisses(t *testing.T) {
	a, b, c := uint64(0x1000), uint64(0x2000), uint64(0x3000)
	s := seq(
		[2]uint64{a, 1}, [2]uint64{c, 4}, // warm A and C
		[2]uint64{b, 1}, [2]uint64{b, 1}, [2]uint64{b, 1},
		[2]uint64{a, 1}, [2]uint64{a, 1},
		[2]uint64{c, 4},
	)
	cfg := tinyCfg()
	vc := RunFOO(s, cfg, Options{Features: Features{Async: true, VarCost: true}})
	ohr := RunFOO(s, cfg, Options{Features: Features{Async: true}})
	if vc.Stats.UopsMissed > ohr.Stats.UopsMissed {
		t.Errorf("cost-aware plan missed %d uops, OHR plan %d — VC should not be worse",
			vc.Stats.UopsMissed, ohr.Stats.UopsMissed)
	}
	// The cost-aware plan must protect C: its final lookup hits.
	if vc.Stats.UopsMissed >= 4+1+1+4 {
		t.Errorf("VC plan did not protect the expensive window: missed %d uops", vc.Stats.UopsMissed)
	}
}

// TestFoldVariantsServesPartialHits reproduces the paper's Fig. 4 setup:
// D' (3 uops) covers D (1 uop, same start). With folding, lookups of D hit
// on the stored D'.
func TestFoldVariantsServesPartialHits(t *testing.T) {
	d, e := uint64(0x1000), uint64(0x2000)
	s := seq(
		[2]uint64{d, 3}, // D' inserted (3 uops)
		[2]uint64{e, 1},
		[2]uint64{d, 1}, [2]uint64{d, 1}, [2]uint64{d, 1}, // D lookups: served by D'
		[2]uint64{d, 3},
		[2]uint64{e, 1},
	)
	cfg := tinyCfg()
	flack := RunFOO(s, cfg, Options{Features: FLACKFeatures()})
	raw := RunFOO(s, cfg, Options{Features: Features{}})
	if flack.Stats.UopsMissed > raw.Stats.UopsMissed {
		t.Errorf("FLACK missed %d uops, raw FOO %d", flack.Stats.UopsMissed, raw.Stats.UopsMissed)
	}
	if flack.Stats.FullHits < 4 {
		t.Errorf("folded plan should hit the D lookups: %+v", flack.Stats)
	}
}

// TestAsyncFeatureHelps: with a nonzero insertion delay, the async-aware
// plan (lazy eviction + late-insertion safeguard) must not lose to the raw
// plan that applies decisions at lookup time.
func TestAsyncFeatureHelps(t *testing.T) {
	cfg := uopcache.Config{Entries: 8, Ways: 8, UopsPerEntry: 8, InsertDelay: 3}
	rng := rand.New(rand.NewSource(8))
	var s []trace.PW
	for i := 0; i < 3000; i++ {
		s = append(s, pw(uint64(0x1000+rng.Intn(40)*16), 1+rng.Intn(12)))
	}
	withA := RunFOO(s, cfg, Options{Features: Features{Async: true}})
	withoutA := RunFOO(s, cfg, Options{Features: Features{}})
	if withA.Stats.UopsMissed > withoutA.Stats.UopsMissed {
		t.Errorf("async handling hurt: %d vs %d missed uops",
			withA.Stats.UopsMissed, withoutA.Stats.UopsMissed)
	}
}

// TestFLACKBeatsBeladyOnVariableCosts: on a trace with strongly variable
// window costs and overlap, FLACK's uop-level misses must be at most
// Belady's (the paper's headline offline claim, Fig. 10).
func TestFLACKBeatsBeladyOnVariableCosts(t *testing.T) {
	cfg := uopcache.Config{Entries: 16, Ways: 8, UopsPerEntry: 8, InsertDelay: 2}
	rng := rand.New(rand.NewSource(77))
	var s []trace.PW
	starts := make([]uint64, 60)
	costs := make([]int, 60)
	for i := range starts {
		starts[i] = uint64(0x1000 + i*16)
		if i%3 == 0 {
			costs[i] = 20 + rng.Intn(12) // expensive multi-entry windows
		} else {
			costs[i] = 1 + rng.Intn(4) // cheap windows
		}
	}
	for i := 0; i < 8000; i++ {
		k := rng.Intn(len(starts))
		if rng.Float64() < 0.5 {
			k = rng.Intn(10) // hot subset
		}
		u := costs[k]
		if rng.Float64() < 0.2 && u > 2 {
			u = u / 2 // overlapping smaller variant
		}
		s = append(s, pw(starts[k], u))
	}
	flack := RunFLACK(s, cfg, Options{})
	bel := RunBelady(s, cfg, Options{})
	if flack.Stats.UopsMissed > bel.Stats.UopsMissed {
		t.Errorf("FLACK missed %d uops, Belady %d — FLACK should win on variable costs",
			flack.Stats.UopsMissed, bel.Stats.UopsMissed)
	}
}

func TestFeaturesLabel(t *testing.T) {
	cases := map[string]Features{
		"foo":       {},
		"foo+A":     {Async: true},
		"foo+A+VC":  {Async: true, VarCost: true},
		"flack":     FLACKFeatures(),
		"foo+VC":    {VarCost: true},
		"foo+SB":    {SelBypass: true},
		"foo+VC+SB": {VarCost: true, SelBypass: true},
	}
	for want, f := range cases {
		if got := f.Label(); got != want {
			t.Errorf("Label(%+v) = %q, want %q", f, got, want)
		}
	}
}

func TestCostModelString(t *testing.T) {
	if CostOHR.String() != "ohr" || CostBHR.String() != "bhr" || CostVC.String() != "vc" {
		t.Error("cost model names")
	}
	if CostModel(9).String() != "unknown" {
		t.Error("unknown cost model name")
	}
}

func TestRunRecordsPerLookup(t *testing.T) {
	s := seq([2]uint64{0x1000, 4}, [2]uint64{0x1000, 4}, [2]uint64{0x1000, 4})
	res := RunFLACK(s, tinyCfg(), Options{RecordPerLookup: true})
	if len(res.PerLookup) != 3 {
		t.Fatalf("PerLookup length %d", len(res.PerLookup))
	}
	if res.PerLookup[0].Kind != uopcache.ProbeMiss {
		t.Error("first lookup should miss")
	}
	if res.PerLookup[2].Kind != uopcache.ProbeFull {
		t.Error("third lookup should hit")
	}
	bel := RunBelady(s, tinyCfg(), Options{RecordPerLookup: true})
	if len(bel.PerLookup) != 3 {
		t.Error("Belady PerLookup missing")
	}
}

// TestSegmentationStillFeasible: tiny segment limits must not break
// anything, only reduce plan quality.
func TestSegmentationStillFeasible(t *testing.T) {
	cfg := uopcache.Config{Entries: 8, Ways: 8, UopsPerEntry: 8, InsertDelay: 0}
	rng := rand.New(rand.NewSource(6))
	var s []trace.PW
	for i := 0; i < 2000; i++ {
		s = append(s, pw(uint64(0x1000+rng.Intn(30)*16), 1+rng.Intn(8)))
	}
	full := RunFLACK(s, cfg, Options{})
	segmented := RunFLACK(s, cfg, Options{SegmentLimit: 64})
	if segmented.Stats.UopsRequested != full.Stats.UopsRequested {
		t.Error("request accounting differs")
	}
	if segmented.Stats.UopsMissed < full.Stats.UopsMissed {
		t.Logf("note: segmented plan beat full plan (%d vs %d) — possible but unusual",
			segmented.Stats.UopsMissed, full.Stats.UopsMissed)
	}
	// Sanity: segmentation cannot catastrophically explode misses.
	if float64(segmented.Stats.UopsMissed) > 3*float64(full.Stats.UopsMissed)+1000 {
		t.Errorf("segmented plan wildly worse: %d vs %d", segmented.Stats.UopsMissed, full.Stats.UopsMissed)
	}
}
