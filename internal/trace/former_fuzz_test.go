package trace

import "testing"

// refForm is the reference formation: the per-instruction formulation
// Former.Add replaces, asking Block.InstAddr and Block.UopsBefore for every
// boundary and measuring the line span from the window's start each time.
func refForm(blocks []Block, maxUops int, crossLine bool, maxLines int) []PW {
	budget := 1
	if crossLine {
		budget = maxLines
		if budget < 1 {
			budget = 2
		}
	}
	var out []PW
	var cur PW
	active := false
	finish := func(taken bool) {
		if cur.NumInst > 0 {
			cur.EndsTaken = taken
			out = append(out, cur)
		}
		active = false
	}
	begin := func(addr uint64) { cur, active = PW{Start: addr}, true }
	for _, b := range blocks {
		for i := 0; i < int(b.NumInst); i++ {
			addr := b.InstAddr(i)
			if !active {
				begin(addr)
			}
			if int((LineAddr(addr)-LineAddr(cur.Start))/LineSize)+1 > budget {
				finish(false)
				begin(addr)
			}
			uops := b.UopsBefore(i+1) - b.UopsBefore(i)
			if cur.NumInst > 0 && int(cur.NumUops)+uops > maxUops {
				finish(false)
				begin(addr)
			}
			cur.Bytes += uint16(b.InstAddr(i+1) - addr)
			cur.NumInst++
			cur.NumUops += uint16(uops)
		}
		if b.EndsTaken() && active {
			finish(true)
		}
	}
	if active {
		finish(false)
	}
	return out
}

// fuzzBlocks decodes data into blocks, five bytes each: instruction count
// (zero included), code size, micro-ops (a single instruction may carry
// more than any cap), terminator, and a jump. Blocks usually follow on from
// the previous one; the jump byte also places some at a line's last bytes,
// behind the previous block, or far ahead.
func fuzzBlocks(data []byte) []Block {
	var blocks []Block
	pc := uint64(0x4000)
	for ; len(data) >= 5; data = data[5:] {
		b := Block{NumInst: uint16(data[0] % 9)}
		if b.NumInst > 0 {
			b.Bytes = b.NumInst + uint16(data[1])%160
			b.NumUops = uint16(data[2]) % 80
		}
		switch data[3] % 4 {
		case 1:
			b.Kind = BranchCond
		case 2:
			b.Kind, b.Taken = BranchCond, true
		case 3:
			b.Kind, b.Taken = BranchUncond, true
		}
		switch j := data[4]; j % 4 {
		case 1:
			pc = LineAddr(pc) + LineSize - uint64(j>>2)%8
		case 2:
			pc -= uint64(j>>2) * 4
		case 3:
			pc += uint64(j>>2) * LineSize
		}
		b.Addr = pc
		if b.Taken {
			b.Target = pc + uint64(data[1])*LineSize - uint64(data[2]%5)
		}
		blocks = append(blocks, b)
		pc = b.NextPC()
	}
	return blocks
}

// FuzzFormerVsReference checks that Former.Add's running walk emits exactly
// the reference's windows for the baseline Former, CLASP with a two-line
// budget and a 16-micro-op cap.
func FuzzFormerVsReference(f *testing.F) {
	// Zero-instruction blocks, plain and taken, between instructions.
	f.Add([]byte{3, 10, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 3, 0, 2, 5, 1, 1, 0, 4, 9, 9, 0, 0})
	// Single instructions with more micro-ops than every cap.
	f.Add([]byte{1, 5, 47, 0, 0, 1, 2, 70, 0, 0, 2, 3, 1, 3, 0, 1, 1, 33, 2, 0})
	// Blocks starting just short of a line end, straddling instructions.
	f.Add([]byte{4, 44, 4, 0, 5, 3, 30, 12, 0, 9, 2, 6, 2, 0, 1, 8, 150, 40, 1, 13})
	// A block behind its predecessor and one far ahead.
	f.Add([]byte{5, 30, 10, 0, 0, 5, 30, 10, 1, 42, 5, 30, 10, 0, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks := fuzzBlocks(data)
		formers := []struct {
			name     string
			f        *Former
			maxUops  int
			cross    bool
			maxLines int
		}{
			{"baseline", NewFormer(0), DefaultMaxUops, false, 0},
			{"clasp", &Former{MaxUops: DefaultMaxUops, CrossLine: true, MaxLines: 2}, DefaultMaxUops, true, 2},
			{"maxuops16", NewFormer(16), 16, false, 0},
		}
		for _, fm := range formers {
			got := FormPWsWith(blocks, fm.f)
			want := refForm(blocks, fm.maxUops, fm.cross, fm.maxLines)
			if len(got) != len(want) {
				t.Fatalf("%s: %d windows, reference %d", fm.name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: window %d = %+v, reference %+v", fm.name, i, got[i], want[i])
				}
			}
		}
	})
}
