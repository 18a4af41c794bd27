package frontend

import (
	"fmt"

	"uopsim/internal/trace"
)

// windowWalk places each window of a trace.FormPWs(blocks, 0) sequence at
// the block whose Former.Add call emits it, without forming anything. Two
// cursors do it: the window index k, and an instruction position (bi, off)
// just past the last placed window. A window is emitted
//
//   - if it ends taken, at the first taken block at or after the block of
//     its last instruction;
//   - otherwise at the block holding the next window's first instruction
//     (where the Former cuts it), or at end of trace for the final window.
//
// Along the way it checks that the windows are the ones FormPWs forms for
// these blocks and panics with a windowMismatch if not: each window must
// start at its first instruction, carry its instructions' bytes and
// micro-ops, stay in one icache line and under the micro-op cap, end at a
// taken branch exactly when it says so, and be cut only where the Former
// cuts; the windows must cover every instruction.
//
// Instruction boundaries come from the cursor block's trace.Split, taken
// once when the cursor enters the block, as Former.Add takes it.
type windowWalk struct {
	blocks  []trace.Block
	pws     []trace.PW
	bi, off int
	cur     trace.Split
}

// newWindowWalk starts a walk at the first instruction of blocks.
func newWindowWalk(blocks []trace.Block, pws []trace.PW) windowWalk {
	w := windowWalk{blocks: blocks, pws: pws}
	w.enter(0)
	return w
}

// instAddr is the cursor block's Block.InstAddr(i).
func (w *windowWalk) instAddr(i int) uint64 {
	return w.blocks[w.bi].Addr + uint64(w.cur.BytesBefore(i))
}

// enter moves the cursor to the first instruction of block bi and splits
// the block, if there is one.
func (w *windowWalk) enter(bi int) {
	w.bi, w.off = bi, 0
	if bi < len(w.blocks) {
		w.cur = w.blocks[bi].Split()
	}
}

// seek moves the instruction cursor past drained blocks and reports
// whether an instruction is left.
func (w *windowWalk) seek() bool {
	for w.bi < len(w.blocks) && w.off == int(w.blocks[w.bi].NumInst) {
		w.enter(w.bi + 1)
	}
	return w.bi < len(w.blocks)
}

// emission returns the block index at which window k is emitted, with
// len(blocks) meaning end of trace, and -1 once k == len(pws). Call it for
// k = 0, 1, 2, ... in order.
func (w *windowWalk) emission(k int) int {
	if k == len(w.pws) {
		if w.seek() {
			w.fail(k, "the windows end before the trace's last instruction")
		}
		return -1
	}
	if !w.seek() {
		w.fail(k, "the trace has no instruction left for this window")
	}
	p := &w.pws[k]
	if p.NumInst == 0 {
		w.fail(k, "empty window")
	}
	if p.Start != w.instAddr(w.off) {
		w.fail(k, "the window does not start at its first instruction's address")
	}
	line := trace.LineAddr(p.Start)
	left, uops, bytes := int(p.NumInst), 0, 0
	for {
		b, c := &w.blocks[w.bi], &w.cur
		if t := min(left, int(b.NumInst)-w.off); t > 0 {
			end := w.off + t
			if trace.LineAddr(w.instAddr(w.off)) != line || trace.LineAddr(w.instAddr(end-1)) != line {
				w.fail(k, "the window has instructions in more than one icache line")
			}
			uops += c.UopsBefore(end) - c.UopsBefore(w.off)
			bytes += c.BytesBefore(end) - c.BytesBefore(w.off)
			left -= t
			w.off = end
		}
		if left == 0 {
			break
		}
		if b.EndsTaken() {
			w.fail(k, "the window runs past a taken branch")
		}
		if w.enter(w.bi + 1); w.bi == len(w.blocks) {
			w.fail(k, "the window has more instructions than the trace has left")
		}
	}
	if uops != int(p.NumUops) || bytes != int(p.Bytes) {
		w.fail(k, "the window's bytes or micro-ops differ from its instructions'")
	}
	if p.NumInst > 1 && uops > trace.DefaultMaxUops {
		w.fail(k, "the window exceeds the micro-op cap")
	}

	if p.EndsTaken {
		if w.off != int(w.blocks[w.bi].NumInst) {
			w.fail(k, "a taken window ends inside a block")
		}
		for j := w.bi; j < len(w.blocks); j++ {
			b := &w.blocks[j]
			if j > w.bi && b.NumInst > 0 {
				break
			}
			if b.EndsTaken() {
				w.enter(j)
				w.off = int(b.NumInst)
				return j
			}
		}
		w.fail(k, "a taken window with no taken block")
	}
	for w.off == int(w.blocks[w.bi].NumInst) {
		if w.blocks[w.bi].EndsTaken() {
			w.fail(k, "a non-taken window ends at a taken branch")
		}
		if w.enter(w.bi + 1); w.bi == len(w.blocks) {
			return len(w.blocks)
		}
	}
	// The Former cuts a non-taken window only before an instruction in
	// another line or one that would overflow the micro-op cap.
	c := &w.cur
	next := c.UopsBefore(w.off+1) - c.UopsBefore(w.off)
	if trace.LineAddr(w.instAddr(w.off)) == line && uops+next <= trace.DefaultMaxUops {
		w.fail(k, "the window is cut at neither a line boundary nor the micro-op cap")
	}
	return w.bi
}

// fail panics with a windowMismatch for window k at the cursor's block.
func (w *windowWalk) fail(k int, reason string) {
	panic(windowMismatch{window: k, windows: len(w.pws), block: w.bi, blocks: len(w.blocks), reason: reason})
}

// windowMismatch is the panic value of a walk over windows that are not
// trace.FormPWs(blocks, 0) for the walked blocks.
type windowMismatch struct {
	window, windows int
	block, blocks   int
	reason          string
}

func (e windowMismatch) Error() string {
	return fmt.Sprintf("frontend: pws are not trace.FormPWs(blocks, 0) for these blocks: window %d of %d at block %d of %d: %s",
		e.window, e.windows, e.block, e.blocks, e.reason)
}
