package trace

import (
	"testing"
)

// prepSeq builds a small repeating lookup sequence with duplicate starts.
func prepSeq() []PW {
	starts := []uint64{0x1000, 0x2040, 0x1000, 0x3080, 0x2040, 0x1000}
	out := make([]PW, len(starts))
	for i, s := range starts {
		out[i] = PW{Start: s, NumUops: uint16(4 + i), Bytes: 16, NumInst: 4, Lines: []uint64{LineAddr(s)}}
	}
	return out
}

// testPrepare builds a PreparedTrace with simple, checkable attribute
// functions (set = start>>6 & 3, footprint = uops).
func testPrepare(pws []PW, sig uint64) *PreparedTrace {
	return Prepare(pws, sig,
		func(start uint64) int { return int(start>>6) & 3 },
		func(p PW) int { return int(p.NumUops) })
}

func TestPreparedColumns(t *testing.T) {
	pws := prepSeq()
	pt := testPrepare(pws, 42)
	if pt.Len() != len(pws) || pt.Sig() != 42 {
		t.Fatalf("Len=%d Sig=%d", pt.Len(), pt.Sig())
	}
	for i, p := range pws {
		if pt.At(i).Start != p.Start {
			t.Fatalf("At(%d).Start = %#x, want %#x", i, pt.At(i).Start, p.Start)
		}
		if got, want := pt.Set(i), int(p.Start>>6)&3; got != want {
			t.Errorf("Set(%d) = %d, want %d", i, got, want)
		}
		if got, want := pt.Footprint(i), int(p.NumUops); got != want {
			t.Errorf("Footprint(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestPreparedOccurrenceIndex(t *testing.T) {
	pws := prepSeq()
	pt := testPrepare(pws, 0)
	if pt.NumKeys() != 3 {
		t.Fatalf("NumKeys = %d, want 3", pt.NumKeys())
	}
	want := map[uint64][]int32{
		0x1000: {0, 2, 5},
		0x2040: {1, 4},
		0x3080: {3},
	}
	for start, positions := range want {
		id, ok := pt.IDOf(start)
		if !ok {
			t.Fatalf("IDOf(%#x) missing", start)
		}
		occ := pt.Occurrences(id)
		if len(occ) != len(positions) {
			t.Fatalf("Occurrences(%#x) = %v, want %v", start, occ, positions)
		}
		for i := range occ {
			if occ[i] != positions[i] {
				t.Fatalf("Occurrences(%#x) = %v, want %v", start, occ, positions)
			}
		}
	}
	if _, ok := pt.IDOf(0xdead); ok {
		t.Error("IDOf(unknown) = ok")
	}
	// keyID must agree with IDOf position by position.
	for i, p := range pws {
		id, _ := pt.IDOf(p.Start)
		if pt.KeyID(i) != id {
			t.Errorf("KeyID(%d) = %d, want %d", i, pt.KeyID(i), id)
		}
	}
}

func TestPreparedSameSequence(t *testing.T) {
	pws := prepSeq()
	pt := testPrepare(pws, 0)
	if !pt.SameSequence(pws) {
		t.Fatal("SameSequence(own slice) = false")
	}
	if pt.SameSequence(pws[:3]) {
		t.Error("SameSequence(prefix) = true")
	}
	clone := append([]PW(nil), pws...)
	if pt.SameSequence(clone) {
		t.Error("SameSequence(copy) = true — must compare backing arrays, not values")
	}
	empty := testPrepare(nil, 0)
	if !empty.SameSequence(nil) {
		t.Error("SameSequence(nil) on empty trace = false")
	}
}

// TestFormerArenaSharing pins the Former.finish allocation fix: every
// emitted window's Lines slice must alias the shared arena, and appending
// to one emitted slice must not scribble over the next window's lines.
func TestFormerArenaSharing(t *testing.T) {
	blocks := []Block{
		{Addr: 0x1000, Bytes: 100, NumInst: 10, NumUops: 10, Kind: BranchCond, Taken: true},
		{Addr: 0x2000, Bytes: 100, NumInst: 10, NumUops: 10, Kind: BranchCond, Taken: true},
		{Addr: 0x3000, Bytes: 100, NumInst: 10, NumUops: 10, Kind: BranchCond, Taken: true},
	}
	f := NewFormer(0)
	pws := FormPWsWith(blocks, f)
	if len(pws) < 3 {
		t.Fatalf("formed %d windows, want >= 3", len(pws))
	}
	for i, p := range pws {
		if len(p.Lines) == 0 {
			t.Fatalf("window %d has no lines", i)
		}
		for j, l := range p.Lines {
			if j > 0 && l != p.Lines[j-1]+LineSize {
				t.Fatalf("window %d lines not contiguous: %v", i, p.Lines)
			}
		}
		if LineAddr(p.Start) != p.Lines[0] {
			t.Fatalf("window %d first line %#x != LineAddr(start) %#x", i, p.Lines[0], LineAddr(p.Start))
		}
	}
	// The capacity cap makes emitted slices append-safe: growing one must
	// reallocate instead of overwriting its neighbour in the arena.
	next := pws[1].Lines[0]
	_ = append(pws[0].Lines, 0xdeadbeef)
	if pws[1].Lines[0] != next {
		t.Fatal("appending to one window's Lines corrupted the next window")
	}
}
