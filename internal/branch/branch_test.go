package branch

import (
	"math/rand"
	"testing"

	"uopsim/internal/trace"
)

func condBlock(pc uint64, taken bool, target uint64) trace.Block {
	return trace.Block{Addr: pc - 12, Bytes: 16, NumInst: 4, NumUops: 4,
		Kind: trace.BranchCond, Taken: taken, Target: pick(taken, target), BranchPC: pc}
}

func pick(b bool, t uint64) uint64 {
	if b {
		return t
	}
	return 0
}

func TestDefaultConfigSane(t *testing.T) {
	c := DefaultConfig()
	if c.BTBEntries != 8192 || c.BTBWays != 4 || c.RASEntries != 32 || c.IBTBEntries != 4096 {
		t.Errorf("config = %+v", c)
	}
	z := Zen4Config()
	if z.BTBEntries <= c.BTBEntries {
		t.Error("Zen4 BTB should be larger")
	}
}

// TestLearnsAlwaysTaken: a strongly biased branch must be predicted almost
// perfectly after warmup.
func TestLearnsAlwaysTaken(t *testing.T) {
	p := New(DefaultConfig())
	pc, tgt := uint64(0x100c), uint64(0x2000)
	var lateMiss int
	for i := 0; i < 1000; i++ {
		out := p.Process(condBlock(pc, true, tgt))
		if i > 100 && out.Mispredicted {
			lateMiss++
		}
	}
	if lateMiss > 0 {
		t.Errorf("%d mispredictions after warmup on always-taken branch", lateMiss)
	}
}

// TestLearnsAlternatingWithHistory: a perfectly alternating branch is
// predictable with global history (the tagged tables must catch it).
func TestLearnsAlternatingWithHistory(t *testing.T) {
	p := New(DefaultConfig())
	pc, tgt := uint64(0x100c), uint64(0x2000)
	var lateMiss, total int
	for i := 0; i < 4000; i++ {
		taken := i%2 == 0
		out := p.Process(condBlock(pc, taken, tgt))
		if i > 2000 {
			total++
			if out.Mispredicted {
				lateMiss++
			}
		}
	}
	if frac := float64(lateMiss) / float64(total); frac > 0.2 {
		t.Errorf("alternating branch mispredicted %.1f%% after warmup", 100*frac)
	}
}

// TestRandomBranchMispredictsOften: an unpredictable branch should hover
// near 50% mispredictions — the predictor must not cheat.
func TestRandomBranchMispredictsOften(t *testing.T) {
	p := New(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	pc, tgt := uint64(0x100c), uint64(0x2000)
	var miss, total int
	for i := 0; i < 4000; i++ {
		taken := rng.Intn(2) == 0
		out := p.Process(condBlock(pc, taken, tgt))
		if i > 500 {
			total++
			if out.Mispredicted {
				miss++
			}
		}
	}
	frac := float64(miss) / float64(total)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("random branch misprediction rate %.2f, want ~0.5", frac)
	}
}

func TestRASPredictsReturns(t *testing.T) {
	p := New(DefaultConfig())
	callPC, retPC := uint64(0x1010), uint64(0x5008)
	retAddr := uint64(0x1014)
	var missLate int
	for i := 0; i < 100; i++ {
		p.Process(trace.Block{Addr: 0x1000, Bytes: 20, NumInst: 5, NumUops: 5,
			Kind: trace.BranchCall, Taken: true, Target: 0x5000, BranchPC: callPC})
		out := p.Process(trace.Block{Addr: 0x5000, Bytes: 12, NumInst: 3, NumUops: 3,
			Kind: trace.BranchRet, Taken: true, Target: retAddr, BranchPC: retPC})
		if i > 0 && out.Mispredicted {
			missLate++
		}
	}
	if missLate != 0 {
		t.Errorf("%d return mispredictions with matched call/ret", missLate)
	}
}

func TestRASUnderflowSafe(t *testing.T) {
	p := New(DefaultConfig())
	out := p.Process(trace.Block{Addr: 0x5000, Bytes: 12, NumInst: 3, NumUops: 3,
		Kind: trace.BranchRet, Taken: true, Target: 0x1234, BranchPC: 0x5008})
	if !out.Mispredicted {
		t.Error("return with empty RAS should mispredict")
	}
}

func TestIBTBLearnsStableTarget(t *testing.T) {
	p := New(DefaultConfig())
	blk := trace.Block{Addr: 0x1000, Bytes: 12, NumInst: 3, NumUops: 3,
		Kind: trace.BranchIndirect, Taken: true, Target: 0x7000, BranchPC: 0x1008}
	var missLate int
	for i := 0; i < 50; i++ {
		out := p.Process(blk)
		if i > 2 && out.Mispredicted {
			missLate++
		}
	}
	if missLate != 0 {
		t.Errorf("%d indirect mispredictions on stable target", missLate)
	}
}

func TestBTBMissOnFirstSight(t *testing.T) {
	p := New(DefaultConfig())
	out := p.Process(condBlock(0x100c, true, 0x2000))
	if !out.BTBMiss {
		t.Error("first sight of a branch should miss the BTB")
	}
	out = p.Process(condBlock(0x100c, true, 0x2000))
	if out.BTBMiss {
		t.Error("second sight should hit the BTB")
	}
	if p.Stats.BTBMisses != 1 {
		t.Errorf("BTB misses = %d", p.Stats.BTBMisses)
	}
}

func TestBTBCapacityEviction(t *testing.T) {
	p := New(Config{BTBEntries: 8, BTBWays: 2, RASEntries: 4, IBTBEntries: 16,
		BimodalBits: 6, TaggedBits: 4, HistLens: [MaxTaggedTables]int{4}})
	// Stream many distinct branches through the 8-entry BTB.
	for i := 0; i < 100; i++ {
		pc := uint64(0x1000 + i*64)
		p.Process(trace.Block{Addr: pc - 12, Bytes: 16, NumInst: 4, NumUops: 4,
			Kind: trace.BranchUncond, Taken: true, Target: 0x9000, BranchPC: pc})
	}
	if p.Stats.BTBMisses < 90 {
		t.Errorf("BTB misses = %d, want ~100 with 8 entries", p.Stats.BTBMisses)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := New(DefaultConfig())
	p.Process(trace.Block{Addr: 0x1000, Bytes: 16, NumInst: 4, NumUops: 4}) // no branch
	p.Process(condBlock(0x100c, true, 0x2000))
	if p.Stats.Instructions != 8 {
		t.Errorf("instructions = %d", p.Stats.Instructions)
	}
	if p.Stats.Branches != 1 || p.Stats.CondBranches != 1 {
		t.Errorf("stats = %+v", p.Stats)
	}
}

func TestMPKI(t *testing.T) {
	var s Stats
	if s.MPKI() != 0 {
		t.Error("empty MPKI")
	}
	s.Instructions = 10000
	s.DirMispredicts = 20
	s.TargetMispredicts = 5
	if got := s.MPKI(); got != 2.5 {
		t.Errorf("MPKI = %v, want 2.5", got)
	}
	if s.Mispredicts() != 25 {
		t.Error("Mispredicts")
	}
}

func TestFoldHistory(t *testing.T) {
	if foldHistory(0, 16, 8) != 0 {
		t.Error("zero history folds to zero")
	}
	// Only low histLen bits participate.
	a := foldHistory(0xFFFF_0000_0000_00FF, 8, 8)
	b := foldHistory(0x0000_0000_0000_00FF, 8, 8)
	if a != b {
		t.Error("bits above histLen leaked into fold")
	}
	if foldHistory(0x1FF, 9, 8) != (0xFF ^ 0x1) {
		t.Errorf("fold = %#x", foldHistory(0x1FF, 9, 8))
	}
}
