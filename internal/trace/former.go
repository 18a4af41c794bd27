package trace

// Former incrementally converts a dynamic block stream into the PW stream the
// micro-op cache frontend observes. A window terminates on:
//
//   - a taken branch (conditional taken, unconditional, call, return,
//     indirect), since the next fetch address is discontiguous;
//   - an icache line boundary: a window never takes in an instruction that
//     starts beyond its line budget (one line; MaxLines under CLASP). The
//     last instruction may straddle the boundary, so its bytes, and the
//     window, then reach into one more line: 27,327 of the 69,692 baseline
//     windows of the 11 applications at 5,000 blocks span two L1i lines.
//     Either line's eviction invalidates such a window, but inclusive
//     invalidations are rare (79 in all under LRU with the L1i on kafka,
//     clang, postgres, wordpress and python at 80,000 blocks);
//   - the maximum window capacity in micro-ops (MaxUops), modelling the
//     bounded number of entries a single PW may occupy in the cache.
//
// Predicted-not-taken conditional branches do NOT terminate a window, which
// is what makes two windows with the same start address but different lengths
// possible (overlapping PWs).
type Former struct {
	// MaxUops caps the number of micro-ops per window; windows exceeding
	// it are split, with the continuation starting a new window.
	MaxUops int
	// CrossLine allows a window to span up to MaxLines icache lines
	// instead of terminating at every boundary — the CLASP technique
	// (Kotra & Kalamatianos, MICRO 2020) that reduces the fragmentation
	// created by line-boundary window cuts.
	CrossLine bool
	// MaxLines bounds a cross-line window's footprint (default 2, as in
	// CLASP's adjacent-line placement).
	MaxLines int

	cur       PW
	curActive bool
}

// DefaultMaxUops is 4 entries of 8 micro-ops each, the Zen3-like default.
const DefaultMaxUops = 32

// NewFormer returns a Former with the given per-window micro-op cap;
// maxUops <= 0 selects DefaultMaxUops.
func NewFormer(maxUops int) *Former {
	if maxUops <= 0 {
		maxUops = DefaultMaxUops
	}
	return &Former{MaxUops: maxUops}
}

// Add consumes one dynamic block, emitting any completed windows. It walks
// the block's instructions with a running address and micro-op count, each
// instruction taking its share of the block's Split: the boundaries
// Block.InstAddr and Block.UopsBefore define, without a division per
// instruction.
func (f *Former) Add(b Block, emit func(PW)) {
	s := b.Split()
	maxSpan := f.maxSpan()
	addr := b.Addr
	for i := uint16(0); i < b.NumInst; i++ {
		size, uops := s.InstBytes(i), s.InstUops(i)
		if !f.curActive {
			f.begin(addr)
		}
		// Cut before an instruction that starts in a line beyond the
		// window's budget. Only the start counts: the window's last
		// instruction may straddle into the next line. Cutting lazily
		// (at the next instruction rather than when the current one
		// ends exactly on the boundary) keeps the taken-branch
		// terminator attributable to the window it belongs to. The
		// unsigned difference also cuts at an address below the
		// window's start.
		if LineAddr(addr)-LineAddr(f.cur.Start) > maxSpan {
			f.finish(false, emit)
			f.begin(addr)
		}
		// Cut before exceeding the micro-op cap, unless the window is
		// empty (a single instruction larger than the cap still forms
		// a window on its own).
		if f.cur.NumInst > 0 && int(f.cur.NumUops)+int(uops) > f.MaxUops {
			f.finish(false, emit)
			f.begin(addr)
		}
		f.cur.Bytes += size
		f.cur.NumInst++
		f.cur.NumUops += uops
		addr += uint64(size)
	}
	if b.EndsTaken() && f.curActive {
		f.finish(true, emit)
	}
}

// Flush emits the in-progress window, if any. Call at end of trace.
func (f *Former) Flush(emit func(PW)) {
	if f.curActive && f.cur.NumInst > 0 {
		f.finish(false, emit)
	}
	f.curActive = false
}

// maxSpan returns the largest distance, in bytes, from a window's first
// line to the line of an instruction it may still take in: LineSize times
// one less than its line budget.
func (f *Former) maxSpan() uint64 {
	budget := 1
	if f.CrossLine {
		budget = f.MaxLines
		if budget < 1 {
			budget = 2
		}
	}
	return uint64(budget-1) * LineSize
}

func (f *Former) begin(addr uint64) {
	f.cur = PW{Start: addr}
	f.curActive = true
}

func (f *Former) finish(taken bool, emit func(PW)) {
	if f.cur.NumInst == 0 {
		f.curActive = false
		return
	}
	f.cur.EndsTaken = taken
	emit(f.cur)
	f.curActive = false
}

// FormPWs converts an entire block trace into its PW lookup sequence. This
// is the paper's STEP(2): with a zero-size micro-op cache every lookup is
// observable, so the emitted sequence is exactly the lookup trace.
func FormPWs(blocks []Block, maxUops int) []PW {
	return FormPWsWith(blocks, NewFormer(maxUops))
}

// FormPWsWith runs a configured Former (e.g. with CLASP cross-line windows)
// over an entire block trace. The output is sized once from the block
// count: the 11 applications form at most 1.12 baseline windows per block
// on inputs 0–2 at 1,000–80,000 blocks (kafka: 16,542 from 15,694 at
// 5,000), and CLASP about 0.55, so an eighth more than one window per block
// covers them, and append grows the slice past any trace that forms more.
func FormPWsWith(blocks []Block, f *Former) []PW {
	pws := make([]PW, 0, len(blocks)+len(blocks)/8)
	emit := func(p PW) { pws = append(pws, p) }
	for _, b := range blocks {
		f.Add(b, emit)
	}
	f.Flush(emit)
	return pws
}
