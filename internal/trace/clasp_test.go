package trace

import "testing"

// claspBlocks builds a straight-line run crossing several line boundaries.
func claspBlocks() []Block {
	return []Block{
		// 160 bytes from 0x1020: spans lines 0x1000, 0x1040, 0x1080, 0x10c0.
		{Addr: 0x1020, Bytes: 160, NumInst: 40, NumUops: 40,
			Kind: BranchUncond, Taken: true, Target: 0x9000, BranchPC: 0x10bc},
	}
}

func TestCrossLineFormsLargerWindows(t *testing.T) {
	base := FormPWs(claspBlocks(), 0)
	clasp := FormPWsWith(claspBlocks(), &Former{MaxUops: DefaultMaxUops, CrossLine: true, MaxLines: 2})
	if len(clasp) >= len(base) {
		t.Errorf("CLASP formed %d windows, baseline %d — expected fewer", len(clasp), len(base))
	}
	var totalBase, totalClasp int
	for _, p := range base {
		totalBase += int(p.NumUops)
	}
	for _, p := range clasp {
		totalClasp += int(p.NumUops)
		if n := spanLen(p); n > 2 {
			t.Errorf("window spans %d lines, budget 2: %+v", n, p)
		}
	}
	if totalBase != totalClasp {
		t.Errorf("uops not conserved: %d vs %d", totalBase, totalClasp)
	}
}

func TestCrossLineDefaultBudget(t *testing.T) {
	f := &Former{MaxUops: DefaultMaxUops, CrossLine: true} // MaxLines unset -> 2
	pws := FormPWsWith(claspBlocks(), f)
	for _, p := range pws {
		if spanLen(p) > 2 {
			t.Errorf("default budget exceeded: %+v", p)
		}
	}
}

func TestCrossLineStillCutsAtTakenBranch(t *testing.T) {
	blocks := []Block{
		{Addr: 0x1000, Bytes: 16, NumInst: 4, NumUops: 4,
			Kind: BranchCond, Taken: true, Target: 0x2000, BranchPC: 0x100c},
		{Addr: 0x2000, Bytes: 16, NumInst: 4, NumUops: 4,
			Kind: BranchUncond, Taken: true, Target: 0x1000, BranchPC: 0x200c},
	}
	pws := FormPWsWith(blocks, &Former{MaxUops: DefaultMaxUops, CrossLine: true, MaxLines: 4})
	if len(pws) != 2 {
		t.Fatalf("got %d windows, want 2 (taken branches still terminate)", len(pws))
	}
	if !pws[0].EndsTaken || !pws[1].EndsTaken {
		t.Error("taken terminators lost under CLASP")
	}
}
