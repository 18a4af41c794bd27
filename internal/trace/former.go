package trace

// Former incrementally converts a dynamic block stream into the PW stream the
// micro-op cache frontend observes. A window terminates on:
//
//   - a taken branch (conditional taken, unconditional, call, return,
//     indirect), since the next fetch address is discontiguous;
//   - an icache line boundary, since the frontend's prediction windows never
//     span L1i lines (Section II-B of the paper);
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

// Add consumes one dynamic block, emitting any completed windows.
func (f *Former) Add(b Block, emit func(PW)) {
	for i := 0; i < int(b.NumInst); i++ {
		addr := b.InstAddr(i)
		if !f.curActive {
			f.begin(addr)
		}
		// A window never spans more lines than allowed: cut before
		// adding an instruction that starts in a line beyond the
		// window's budget (1 line normally; MaxLines under CLASP).
		// Cutting lazily (at the next instruction rather than when
		// the current one ends exactly on the boundary) keeps the
		// taken-branch terminator attributable to the window it
		// belongs to.
		if f.lineBudgetExceeded(addr) {
			f.finish(false, emit)
			f.begin(addr)
		}
		// Cut before exceeding the micro-op cap, unless the window is
		// empty (a single instruction larger than the cap still forms
		// a window on its own).
		uops := b.UopsBefore(i+1) - b.UopsBefore(i)
		if f.cur.NumInst > 0 && int(f.cur.NumUops)+uops > f.MaxUops {
			f.finish(false, emit)
			f.begin(addr)
		}
		f.cur.Bytes += uint16(b.InstAddr(i+1) - addr)
		f.cur.NumInst++
		f.cur.NumUops += uint16(uops)
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

// lineBudgetExceeded reports whether extending the current window to an
// instruction at addr would exceed its icache-line budget.
func (f *Former) lineBudgetExceeded(addr uint64) bool {
	budget := 1
	if f.CrossLine {
		budget = f.MaxLines
		if budget < 1 {
			budget = 2
		}
	}
	span := int((LineAddr(addr)-LineAddr(f.cur.Start))/LineSize) + 1
	return span > budget
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
// over an entire block trace.
func FormPWsWith(blocks []Block, f *Former) []PW {
	var pws []PW
	emit := func(p PW) { pws = append(pws, p) }
	for _, b := range blocks {
		f.Add(b, emit)
	}
	f.Flush(emit)
	return pws
}
