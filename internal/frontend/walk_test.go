package frontend

import (
	"testing"

	"uopsim/internal/trace"
	"uopsim/internal/workload"
)

// synthBlocks decodes data into a control-flow-consistent block stream,
// four bytes per block: instruction count (zero included), code size,
// micro-ops (a single instruction may exceed trace.DefaultMaxUops), and the
// terminator with its target. Taken blocks jump to a target that is often
// line-aligned or just short of a line end; the rest fall through.
func synthBlocks(data []byte) []trace.Block {
	var blocks []trace.Block
	pc := uint64(0x1000)
	for ; len(data) >= 4; data = data[4:] {
		b := trace.Block{Addr: pc, NumInst: uint16(data[0] % 6)}
		if b.NumInst > 0 {
			b.Bytes = b.NumInst + uint16(data[1]%40)
			b.NumUops = b.NumInst + uint16(data[2]%48)
		}
		switch data[3] % 4 {
		case 1:
			b.Kind = trace.BranchCond
		case 2:
			b.Kind, b.Taken = trace.BranchCond, true
		case 3:
			b.Kind, b.Taken = trace.BranchUncond, true
		}
		if b.Kind.IsBranch() {
			b.BranchPC = b.InstAddr(max(int(b.NumInst)-1, 0))
		}
		if b.Taken {
			b.Target = 0x1000 + uint64(data[3]>>2)*trace.LineSize - uint64(data[1]%3)*8
		}
		blocks = append(blocks, b)
		pc = b.NextPC()
	}
	return blocks
}

// formWithEmission forms blocks' windows with a Former and records, per
// window, the block whose Add call emitted it (len(blocks) for Flush).
func formWithEmission(blocks []trace.Block) ([]trace.PW, []int) {
	var pws []trace.PW
	var at []int
	fm := trace.NewFormer(0)
	for i, b := range blocks {
		fm.Add(b, func(p trace.PW) { pws = append(pws, p); at = append(at, i) })
	}
	fm.Flush(func(p trace.PW) { pws = append(pws, p); at = append(at, len(blocks)) })
	return pws, at
}

// checkEmission asserts that the walk places every window at the block
// whose Former.Add call emitted it.
func checkEmission(t *testing.T, blocks []trace.Block) {
	t.Helper()
	pws, want := formWithEmission(blocks)
	w := newWindowWalk(blocks, pws)
	for k := range pws {
		if got := w.emission(k); got != want[k] {
			t.Fatalf("window %d of %d (%+v): walk emits at block %d, Former at block %d", k, len(pws), pws[k], got, want[k])
		}
	}
	if got := w.emission(len(pws)); got != -1 {
		t.Fatalf("walk past the last window = %d, want -1", got)
	}
}

func FuzzWindowEmission(f *testing.F) {
	// Zero-instruction blocks, plain and taken, between instructions.
	f.Add([]byte{3, 10, 2, 0, 0, 0, 0, 0, 0, 0, 0, 3, 2, 5, 1, 1, 0, 0, 0, 2, 4, 9, 9, 0})
	// One instruction with more micro-ops than the cap, then a small one.
	f.Add([]byte{1, 5, 47, 0, 1, 2, 40, 0, 2, 3, 1, 3})
	// A window ending exactly on a line boundary: 48 then 16 bytes from
	// 0x1000, falling through into the next line.
	f.Add([]byte{4, 44, 4, 0, 4, 12, 4, 0, 2, 6, 2, 0, 1, 1, 1, 7})
	// A tight taken loop back to a line start.
	f.Add([]byte{5, 30, 10, 7, 5, 30, 10, 7, 5, 30, 10, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEmission(t, synthBlocks(data))
	})
}

// TestWindowEmissionWorkloads checks the walk against the Former on every
// application's generated trace.
func TestWindowEmissionWorkloads(t *testing.T) {
	for _, app := range workload.Names() {
		spec, err := workload.Get(app)
		if err != nil {
			t.Fatal(err)
		}
		checkEmission(t, workload.GenerateSpec(spec, 3000, 0))
	}
}
