package trace

import (
	"testing"
)

// prepSeq builds a small repeating lookup sequence with duplicate starts.
func prepSeq() []PW {
	starts := []uint64{0x1000, 0x2040, 0x1000, 0x3080, 0x2040, 0x1000}
	out := make([]PW, len(starts))
	for i, s := range starts {
		out[i] = PW{Start: s, NumUops: uint16(4 + i), Bytes: 16, NumInst: 4}
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
