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
type windowWalk struct {
	blocks  []trace.Block
	pws     []trace.PW
	bi, off int
}

// seek moves the instruction cursor past drained blocks and reports
// whether an instruction is left.
func (w *windowWalk) seek() bool {
	for w.bi < len(w.blocks) && w.off == int(w.blocks[w.bi].NumInst) {
		w.bi++
		w.off = 0
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
	if p.Start != w.blocks[w.bi].InstAddr(w.off) {
		w.fail(k, "the window does not start at its first instruction's address")
	}
	line := trace.LineAddr(p.Start)
	left, uops, bytes := int(p.NumInst), 0, 0
	for {
		b := &w.blocks[w.bi]
		if t := min(left, int(b.NumInst)-w.off); t > 0 {
			end := w.off + t
			if trace.LineAddr(b.InstAddr(w.off)) != line || trace.LineAddr(b.InstAddr(end-1)) != line {
				w.fail(k, "the window has instructions in more than one icache line")
			}
			uops += b.UopsBefore(end) - b.UopsBefore(w.off)
			bytes += int(b.InstAddr(end) - b.InstAddr(w.off))
			left -= t
			w.off = end
		}
		if left == 0 {
			break
		}
		if b.EndsTaken() {
			w.fail(k, "the window runs past a taken branch")
		}
		if w.bi++; w.bi == len(w.blocks) {
			w.fail(k, "the window has more instructions than the trace has left")
		}
		w.off = 0
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
				w.bi, w.off = j, int(b.NumInst)
				return j
			}
		}
		w.fail(k, "a taken window with no taken block")
	}
	for w.off == int(w.blocks[w.bi].NumInst) {
		if w.blocks[w.bi].EndsTaken() {
			w.fail(k, "a non-taken window ends at a taken branch")
		}
		w.off = 0
		if w.bi++; w.bi == len(w.blocks) {
			return len(w.blocks)
		}
	}
	// The Former cuts a non-taken window only before an instruction in
	// another line or one that would overflow the micro-op cap.
	b := &w.blocks[w.bi]
	next := b.UopsBefore(w.off+1) - b.UopsBefore(w.off)
	if trace.LineAddr(b.InstAddr(w.off)) == line && uops+next <= trace.DefaultMaxUops {
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
