// Package offline implements the paper's offline replacement policies for
// the micro-op cache: Belady's algorithm (adapted to whole-PW eviction with
// insertion-time decisions), FOO (flow-based offline optimal, Berger et
// al.), and FLACK — the paper's contribution — which extends FOO with
// asynchrony handling (A), variable miss costs (VC), and selective bypass
// for partially-hitting overlapping windows (SB). The three features are
// individually toggleable to regenerate the paper's Fig. 10 ablation.
package offline

import (
	"math"

	"uopsim/internal/trace"
)

// NoNextUse is returned by the oracle when a window is never looked up
// again.
const NoNextUse = math.MaxInt64

// Oracle answers "when is this window next looked up?" for a fixed PW
// lookup sequence. Positions are 0-based indices into the sequence. The
// oracle tracks a current position that callers advance monotonically.
//
// The occurrence index is the prepared trace's shared CSR columns; each
// oracle keeps only a flat per-key cursor array private.
type Oracle struct {
	pt  *trace.PreparedTrace
	ptr []int32
	pos int
}

// NewOracle builds an oracle over a prepared trace's shared occurrence
// index. Only the per-key cursors are allocated per oracle.
func NewOracle(pt *trace.PreparedTrace) *Oracle {
	return &Oracle{pt: pt, ptr: make([]int32, pt.NumKeys()), pos: -1}
}

// Advance sets the current position; it must not decrease.
func (o *Oracle) Advance(pos int) { o.pos = pos }

// Pos returns the current position.
func (o *Oracle) Pos() int { return o.pos }

// NextUse returns the first lookup position AT OR AFTER the current
// position at which the window with this start address is requested, or
// NoNextUse. The inclusive convention matters: replacement decisions run
// when a delayed insertion drains, which is before the current position's
// lookup is served, so a window about to be used "now" must not look dead.
//
//simlint:hotpath
func (o *Oracle) NextUse(start uint64) int {
	id, ok := o.pt.IDOf(start)
	if !ok {
		return NoNextUse
	}
	return o.NextUseID(id)
}

// NextUseID is NextUse for the window with a dense key id of the prepared
// trace (PreparedTrace.IDOf).
//
//simlint:hotpath
func (o *Oracle) NextUseID(id int32) int {
	occ := o.pt.Occurrences(id)
	i := o.ptr[id]
	for int(i) < len(occ) && int(occ[i]) < o.pos {
		i++
	}
	o.ptr[id] = i
	if int(i) == len(occ) {
		return NoNextUse
	}
	return int(occ[i])
}

// Lookups returns the number of occurrences of a window in the sequence.
func (o *Oracle) Lookups(start uint64) int {
	id, ok := o.pt.IDOf(start)
	if !ok {
		return 0
	}
	return len(o.pt.Occurrences(id))
}
