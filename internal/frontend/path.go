package frontend

import (
	"fmt"
	"math"

	"uopsim/internal/backend"
	"uopsim/internal/branch"
	"uopsim/internal/trace"
)

// Path is the policy-independent half of a timing run over one trace: where
// each window is emitted, how each block's branch was predicted, and how
// long each window stalls the backend's data side. The predictor runs ahead
// of fetch in the decoupled frontend, and the data side is keyed by each
// window's code address and micro-op count, so none of it depends on the
// micro-op cache, the L1i or the frontend's cycle accounting. NewPath
// computes it once; any number of runs, under any frontend Config, micro-op
// cache geometry or policy, may then walk it, concurrently too: a Path is
// never modified after NewPath returns.
type Path struct {
	blocks []trace.Block
	pws    []trace.PW
	bcfg   branch.Config
	becfg  backend.Config

	// steps holds one entry per block: the number of windows emitted at
	// the block, shifted left by stepShift, OR the block's predictor flags
	// (stepMispredict, stepBTBMiss). Windows left over after the last block
	// are emitted at end of trace.
	steps []uint16
	// stalls holds each window's whole data-stall cycles (backend.Data.Stall).
	stalls []uint16

	branchStats  branch.Stats
	backendStats backend.Stats
	btbLookups   uint64
}

// A step's low bits flag its block's prediction outcome; the rest count the
// windows emitted at the block.
const (
	stepMispredict = 1 << iota
	stepBTBMiss
	stepShift = iota
)

// NewPath walks blocks and their windows, which must be
// trace.FormPWs(blocks, 0) — NewPath panics with a windowMismatch if they
// are not — through a fresh predictor built from bcfg and a fresh backend
// data side built from becfg, and records the outcome. It also panics if a
// block emits more windows or a window stalls for more cycles than the
// compact encoding holds, rather than truncate either.
func NewPath(blocks []trace.Block, pws []trace.PW, bcfg branch.Config, becfg backend.Config) *Path {
	p := &Path{
		blocks: blocks, pws: pws, bcfg: bcfg, becfg: becfg,
		steps:  make([]uint16, len(blocks)),
		stalls: make([]uint16, len(pws)),
	}
	bp := branch.New(bcfg)
	w := newWindowWalk(blocks, pws)
	k, at := 0, w.emission(0)
	for i := range blocks {
		b := &blocks[i]
		if b.Kind.IsBranch() {
			p.btbLookups++
		}
		out := bp.Process(*b)
		n := 0
		for ; at == i; k++ {
			n++
			at = w.emission(k + 1)
		}
		if n > math.MaxUint16>>stepShift {
			panic(fmt.Sprintf("frontend: block %d emits %d windows, more than a path step holds", i, n))
		}
		step := uint16(n) << stepShift
		if out.Mispredicted {
			step |= stepMispredict
		}
		if out.BTBMiss {
			step |= stepBTBMiss
		}
		p.steps[i] = step
	}
	for ; at == len(blocks); k++ {
		at = w.emission(k + 1)
	}
	p.branchStats = bp.Stats

	data := backend.NewData(becfg)
	for k := range pws {
		pw := &pws[k]
		s := data.Stall(int(pw.NumUops), int(pw.NumInst), pw.Start)
		if s > math.MaxUint16 {
			panic(fmt.Sprintf("frontend: window %d stalls the data side for %d cycles, more than a path holds", k, s))
		}
		p.stalls[k] = uint16(s)
	}
	p.backendStats = data.Stats
	return p
}

// For reports whether p was built by NewPath over exactly these block and
// window slices (same backing arrays and lengths) with these predictor and
// backend configurations; a nil p is for nothing.
func (p *Path) For(blocks []trace.Block, pws []trace.PW, bcfg branch.Config, becfg backend.Config) bool {
	return p != nil && sameSlice(p.blocks, blocks) && sameSlice(p.pws, pws) &&
		p.bcfg == bcfg && p.becfg == becfg
}

// sameSlice reports whether a and b are the same view of the same array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
