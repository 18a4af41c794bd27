package trace

import "testing"

func apw(start uint64, uops int, taken bool) PW {
	return PW{Start: start, NumUops: uint16(uops), Bytes: uint16(uops * 4),
		NumInst: uint16(uops), EndsTaken: taken}
}

func TestAnalyzeBasics(t *testing.T) {
	pws := []PW{
		apw(0x1000, 4, true),
		apw(0x1000, 8, false), // overlapping variant of 0x1000
		apw(0x2000, 12, true), // 2 entries
		apw(0x3000, 4, true),
	}
	a := Analyze(pws, 8)
	if a.Lookups != 4 || a.DistinctStarts != 3 {
		t.Errorf("lookups/starts = %d/%d", a.Lookups, a.DistinctStarts)
	}
	if a.OverlappingStarts != 1 {
		t.Errorf("overlapping = %d", a.OverlappingStarts)
	}
	if a.OverlapFrac() != 1.0/3.0 {
		t.Errorf("overlap frac = %v", a.OverlapFrac())
	}
	if a.TotalUops != 28 {
		t.Errorf("total uops = %d", a.TotalUops)
	}
	if a.AvgUops != 7 {
		t.Errorf("avg uops = %v", a.AvgUops)
	}
	if a.SizeHist[1] != 3 || a.SizeHist[2] != 1 {
		t.Errorf("size hist = %v", a.SizeHist)
	}
	if a.EndsTakenFrac != 0.75 {
		t.Errorf("taken frac = %v", a.EndsTakenFrac)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil, 0)
	if a.Lookups != 0 || a.AvgUops != 0 || a.OverlapFrac() != 0 {
		t.Errorf("empty analysis = %+v", a)
	}
}

func TestAnalyzeOversizedWindowClamped(t *testing.T) {
	// 60 uops = 8 entries at 8/entry; clamps into the last histogram bin.
	a := Analyze([]PW{apw(0x1000, 60, true)}, 8)
	if a.SizeHist[len(a.SizeHist)-1] != 1 {
		t.Errorf("hist = %v", a.SizeHist)
	}
}

func TestAnalyzeDefaultsUopsPerEntry(t *testing.T) {
	a := Analyze([]PW{apw(0x1000, 9, true)}, 0) // 0 -> 8/entry -> 2 entries
	if a.AvgEntries != 2 {
		t.Errorf("avg entries = %v", a.AvgEntries)
	}
}
