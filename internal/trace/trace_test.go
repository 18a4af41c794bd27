package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestBranchKindString(t *testing.T) {
	cases := map[BranchKind]string{
		BranchNone:     "none",
		BranchCond:     "cond",
		BranchUncond:   "uncond",
		BranchCall:     "call",
		BranchRet:      "ret",
		BranchIndirect: "indirect",
		BranchKind(42): "BranchKind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("BranchKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestBranchKindPredicates(t *testing.T) {
	if BranchNone.IsBranch() {
		t.Error("BranchNone.IsBranch() = true")
	}
	for _, k := range []BranchKind{BranchCond, BranchUncond, BranchCall, BranchRet, BranchIndirect} {
		if !k.IsBranch() {
			t.Errorf("%v.IsBranch() = false", k)
		}
	}
	if !BranchCond.IsConditional() {
		t.Error("BranchCond.IsConditional() = false")
	}
	if BranchUncond.IsConditional() {
		t.Error("BranchUncond.IsConditional() = true")
	}
}

func TestBlockNextPC(t *testing.T) {
	b := Block{Addr: 0x1000, Bytes: 16, Kind: BranchCond, Taken: true, Target: 0x2000}
	if got := b.NextPC(); got != 0x2000 {
		t.Errorf("taken NextPC = %#x, want 0x2000", got)
	}
	b.Taken = false
	if got := b.NextPC(); got != 0x1010 {
		t.Errorf("not-taken NextPC = %#x, want 0x1010", got)
	}
	if got := b.FallThrough(); got != 0x1010 {
		t.Errorf("FallThrough = %#x, want 0x1010", got)
	}
}

func TestLineAddr(t *testing.T) {
	for _, tc := range []struct{ in, want uint64 }{
		{0, 0}, {1, 0}, {63, 0}, {64, 64}, {0x1037, 0x1000}, {0x10ff, 0x10c0},
	} {
		if got := LineAddr(tc.in); got != tc.want {
			t.Errorf("LineAddr(%#x) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

func TestPWCostAndEntries(t *testing.T) {
	p := PW{NumUops: 0}
	if p.Entries(8) != 1 {
		t.Errorf("zero-uop PW should still occupy 1 entry, got %d", p.Entries(8))
	}
	for _, tc := range []struct {
		uops, per, want int
	}{
		{1, 8, 1}, {8, 8, 1}, {9, 8, 2}, {16, 8, 2}, {17, 8, 3}, {32, 8, 4}, {5, 4, 2},
	} {
		p := PW{NumUops: uint16(tc.uops)}
		if got := p.Entries(tc.per); got != tc.want {
			t.Errorf("Entries(uops=%d, per=%d) = %d, want %d", tc.uops, tc.per, got, tc.want)
		}
		if p.Cost() != tc.uops {
			t.Errorf("Cost() = %d, want %d", p.Cost(), tc.uops)
		}
	}
}

func TestLineSpan(t *testing.T) {
	cases := []struct {
		name        string
		start       uint64
		bytes       uint16
		first, last uint64
	}{
		{"zero bytes", 0x1010, 0, 0x1000, 0x1000},
		{"within a line", 0x1010, 16, 0x1000, 0x1000},
		{"ends exactly on a boundary", 0x1020, 32, 0x1000, 0x1000},
		{"whole line", 0x1000, 64, 0x1000, 0x1000},
		{"crosses a boundary", 0x103c, 8, 0x1000, 0x1040},
		{"CLASP two-line window", 0x1020, 96, 0x1000, 0x1040},
	}
	for _, tc := range cases {
		first, last := LineSpan(tc.start, tc.bytes)
		if first != tc.first || last != tc.last {
			t.Errorf("%s: LineSpan(%#x, %d) = %#x, %#x; want %#x, %#x",
				tc.name, tc.start, tc.bytes, first, last, tc.first, tc.last)
		}
		p := PW{Start: tc.start, Bytes: tc.bytes}
		if f, l := p.Lines(); f != first || l != last {
			t.Errorf("%s: PW.Lines() = %#x, %#x; LineSpan gives %#x, %#x", tc.name, f, l, first, last)
		}
	}
}

// TestPWIsPointerFree pins the PW layout: 16 bytes and no reference
// fields, so PW slices are noscan for the garbage collector.
func TestPWIsPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(PW{}); got != 16 {
		t.Errorf("sizeof(PW) = %d bytes, want 16", got)
	}
	typ := reflect.TypeOf(PW{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("PW.%s is a %s, a reference field", f.Name, f.Type.Kind())
		}
	}
}

// spanLen is the number of icache lines p spans.
func spanLen(p PW) int {
	first, last := p.Lines()
	return int((last-first)/LineSize) + 1
}

func TestWriteReadBlocksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	blocks := make([]Block, 200)
	for i := range blocks {
		blocks[i] = Block{
			Addr:     rng.Uint64(),
			Bytes:    uint16(rng.Intn(256)),
			NumInst:  uint16(rng.Intn(32)),
			NumUops:  uint16(rng.Intn(64)),
			Kind:     BranchKind(rng.Intn(6)),
			Taken:    rng.Intn(2) == 0,
			Target:   rng.Uint64(),
			BranchPC: rng.Uint64(),
		}
	}
	var buf bytes.Buffer
	if err := WriteBlocks(&buf, blocks); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	got, err := ReadBlocks(&buf)
	if err != nil {
		t.Fatalf("ReadBlocks: %v", err)
	}
	if !reflect.DeepEqual(got, blocks) {
		t.Error("round trip mismatch")
	}
}

func TestReadBlocksBadMagic(t *testing.T) {
	if _, err := ReadBlocks(bytes.NewReader(make([]byte, 12))); err == nil {
		t.Error("expected error on zero magic")
	}
}

func TestReadBlocksTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlocks(&buf, []Block{{Addr: 1}, {Addr: 2}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadBlocks(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Error("expected error on truncated trace")
	}
}

func TestInstBoundariesConserve(t *testing.T) {
	f := func(addr uint64, bytes, ninst, nuops uint16) bool {
		ninst = ninst%20 + 1
		bytes = bytes%300 + ninst // at least 1 byte per instruction on average is not required, just consistency
		nuops = nuops % 64
		b := Block{Addr: addr, Bytes: bytes, NumInst: ninst, NumUops: nuops}
		if b.InstAddr(0) != addr || b.InstAddr(int(ninst)) != b.FallThrough() {
			return false
		}
		if b.UopsBefore(0) != 0 || b.UopsBefore(int(ninst)) != int(nuops) {
			return false
		}
		// Every instruction gets the even share, the first remainder ones
		// one unit more, so sizes never grow along the block.
		// InstBytes and InstUops are the same differences.
		prevBytes, prevUops := int(bytes)+1, int(nuops)+1
		s := b.Split()
		for i := 0; i < int(ninst); i++ {
			by := int(b.InstAddr(i+1) - b.InstAddr(i))
			uo := b.UopsBefore(i+1) - b.UopsBefore(i)
			if by != int(s.InstBytes(uint16(i))) || uo != int(s.InstUops(uint16(i))) {
				return false
			}
			if by > prevBytes || uo > prevUops || by-int(bytes)/int(ninst) > 1 || uo-int(nuops)/int(ninst) > 1 {
				return false
			}
			prevBytes, prevUops = by, uo
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInstBoundariesEmpty(t *testing.T) {
	b := Block{Addr: 0x1000, NumInst: 0, Bytes: 10, NumUops: 3}
	if b.InstAddr(0) != b.Addr || b.UopsBefore(0) != 0 {
		t.Errorf("0-inst block: InstAddr(0) = %#x, UopsBefore(0) = %d", b.InstAddr(0), b.UopsBefore(0))
	}
	if pws := FormPWs([]Block{b}, 0); len(pws) != 0 {
		t.Errorf("0-inst block formed windows: %+v", pws)
	}
}

// TestFormerTakenBranchTerminates: a taken branch must terminate the window.
func TestFormerTakenBranchTerminates(t *testing.T) {
	blocks := []Block{
		{Addr: 0x1000, Bytes: 16, NumInst: 4, NumUops: 5, Kind: BranchCond, Taken: true, Target: 0x2000, BranchPC: 0x100c},
		{Addr: 0x2000, Bytes: 8, NumInst: 2, NumUops: 2, Kind: BranchUncond, Taken: true, Target: 0x1000, BranchPC: 0x2004},
	}
	pws := FormPWs(blocks, 0)
	if len(pws) != 2 {
		t.Fatalf("got %d PWs, want 2: %+v", len(pws), pws)
	}
	if pws[0].Start != 0x1000 || pws[0].NumUops != 5 || !pws[0].EndsTaken {
		t.Errorf("pw0 = %+v", pws[0])
	}
	if pws[1].Start != 0x2000 || pws[1].NumUops != 2 || !pws[1].EndsTaken {
		t.Errorf("pw1 = %+v", pws[1])
	}
}

// TestFormerNotTakenMerges: a not-taken conditional must NOT terminate the
// window; the following block merges into the same PW.
func TestFormerNotTakenMerges(t *testing.T) {
	blocks := []Block{
		{Addr: 0x1000, Bytes: 16, NumInst: 4, NumUops: 4, Kind: BranchCond, Taken: false, BranchPC: 0x100c},
		{Addr: 0x1010, Bytes: 16, NumInst: 4, NumUops: 4, Kind: BranchCond, Taken: true, Target: 0x3000, BranchPC: 0x101c},
	}
	pws := FormPWs(blocks, 0)
	if len(pws) != 1 {
		t.Fatalf("got %d PWs, want 1: %+v", len(pws), pws)
	}
	if pws[0].Start != 0x1000 || pws[0].NumUops != 8 || pws[0].NumInst != 8 {
		t.Errorf("merged PW = %+v", pws[0])
	}
}

// TestFormerOverlappingPWs: the same start address yields different window
// lengths depending on the conditional outcome — the paper's partial-hit
// setup.
func TestFormerOverlappingPWs(t *testing.T) {
	short := []Block{
		{Addr: 0x1000, Bytes: 16, NumInst: 4, NumUops: 4, Kind: BranchCond, Taken: true, Target: 0x5000, BranchPC: 0x100c},
	}
	long := []Block{
		{Addr: 0x1000, Bytes: 16, NumInst: 4, NumUops: 4, Kind: BranchCond, Taken: false, BranchPC: 0x100c},
		{Addr: 0x1010, Bytes: 16, NumInst: 4, NumUops: 4, Kind: BranchUncond, Taken: true, Target: 0x5000, BranchPC: 0x101c},
	}
	ps := FormPWs(short, 0)
	pl := FormPWs(long, 0)
	if len(ps) != 1 || len(pl) != 1 {
		t.Fatalf("want 1 PW each, got %d and %d", len(ps), len(pl))
	}
	if ps[0].Start != pl[0].Start {
		t.Errorf("starts differ: %#x vs %#x", ps[0].Start, pl[0].Start)
	}
	if ps[0].NumUops >= pl[0].NumUops {
		t.Errorf("short PW (%d uops) should be smaller than long PW (%d uops)", ps[0].NumUops, pl[0].NumUops)
	}
}

// TestFormerLineBoundary: a window is cut before an instruction that starts
// in the next icache line, so windows of instructions that do not straddle
// a boundary stay within one line.
func TestFormerLineBoundary(t *testing.T) {
	blocks := []Block{
		// 96 bytes starting at 0x1020: crosses 0x1040 boundary.
		{Addr: 0x1020, Bytes: 96, NumInst: 24, NumUops: 24, Kind: BranchUncond, Taken: true, Target: 0x9000, BranchPC: 0x107c},
	}
	pws := FormPWs(blocks, 0)
	if len(pws) < 2 {
		t.Fatalf("expected split at line boundary, got %d PWs", len(pws))
	}
	for i, p := range pws {
		if n := spanLen(p); n != 1 {
			t.Errorf("pw %d spans %d lines: %+v", i, n, p)
		}
		end := p.Start + uint64(p.Bytes) - 1
		if LineAddr(p.Start) != LineAddr(end) {
			t.Errorf("pw %d crosses line: start %#x end %#x", i, p.Start, end)
		}
	}
	if !pws[len(pws)-1].EndsTaken {
		t.Error("final window should end taken")
	}
}

// TestFormerMaxUops: windows are split at the micro-op cap.
func TestFormerMaxUops(t *testing.T) {
	blocks := []Block{
		{Addr: 0x1000, Bytes: 40, NumInst: 10, NumUops: 40, Kind: BranchUncond, Taken: true, Target: 0x9000, BranchPC: 0x1024},
	}
	pws := FormPWs(blocks, 8)
	var total int
	for i, p := range pws {
		if int(p.NumUops) > 8 {
			t.Errorf("pw %d has %d uops, cap 8", i, p.NumUops)
		}
		total += int(p.NumUops)
	}
	if total != 40 {
		t.Errorf("uops not conserved: %d != 40", total)
	}
}

// TestFormerConservation: micro-ops, instructions and bytes are conserved
// from blocks to windows for arbitrary traces.
func TestFormerConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var blocks []Block
	addr := uint64(0x400000)
	for i := 0; i < 500; i++ {
		n := uint16(rng.Intn(12) + 1)
		by := n * uint16(rng.Intn(6)+2)
		uo := n + uint16(rng.Intn(int(n)+1))
		kind := BranchKind(rng.Intn(6))
		taken := kind != BranchNone && (kind != BranchCond || rng.Intn(2) == 0)
		var tgt uint64
		if taken {
			tgt = uint64(0x400000 + rng.Intn(1<<16))
		}
		blocks = append(blocks, Block{Addr: addr, Bytes: by, NumInst: n, NumUops: uo, Kind: kind, Taken: taken, Target: tgt})
		if taken {
			addr = tgt
		} else {
			addr += uint64(by)
		}
	}
	var wantU, wantI, wantB int
	for _, b := range blocks {
		wantU += int(b.NumUops)
		wantI += int(b.NumInst)
		wantB += int(b.Bytes)
	}
	pws := FormPWs(blocks, 0)
	var gotU, gotI, gotB int
	for _, p := range pws {
		gotU += int(p.NumUops)
		gotI += int(p.NumInst)
		gotB += int(p.Bytes)
		if int(p.NumUops) > DefaultMaxUops {
			t.Errorf("PW exceeds cap: %+v", p)
		}
	}
	if gotU != wantU || gotI != wantI || gotB != wantB {
		t.Errorf("conservation: uops %d/%d inst %d/%d bytes %d/%d", gotU, wantU, gotI, wantI, gotB, wantB)
	}
}

func TestFormerFlushEmitsPartial(t *testing.T) {
	f := NewFormer(0)
	var pws []PW
	emit := func(p PW) { pws = append(pws, p) }
	f.Add(Block{Addr: 0x1000, Bytes: 8, NumInst: 2, NumUops: 2, Kind: BranchCond, Taken: false, BranchPC: 0x1004}, emit)
	if len(pws) != 0 {
		t.Fatalf("premature emit: %+v", pws)
	}
	f.Flush(emit)
	if len(pws) != 1 || pws[0].NumUops != 2 || pws[0].EndsTaken {
		t.Errorf("flushed PW = %+v", pws)
	}
	// Second flush is a no-op.
	f.Flush(emit)
	if len(pws) != 1 {
		t.Errorf("double flush emitted again: %+v", pws)
	}
}
