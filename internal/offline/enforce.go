package offline

import (
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// Decision reason vocabulary for the offline policies (constant strings so
// stamping a Decision never allocates; the online vocabulary lives in
// package policy).
const (
	// ReasonFurthestNextUse: Belady's rule — the victim's next lookup is
	// furthest in the future.
	ReasonFurthestNextUse = "furthest_next_use"
	// ReasonUnkeptArrival: a FOO/FLACK plan does not keep the incoming
	// window's current interval, so it is bypassed under pressure.
	ReasonUnkeptArrival = "plan_unkept_arrival"
	// ReasonUnkeptFurthest: the victim's current interval is unkept by the
	// plan (furthest next use among unkept residents).
	ReasonUnkeptFurthest = "plan_unkept_furthest"
	// ReasonKeptFurthest: every resident was kept by the plan, so the
	// furthest-next-use resident goes (plan/capacity disagreement).
	ReasonKeptFurthest = "plan_kept_furthest"
)

// PlanPolicy enforces an offline plan inside the micro-op cache, in
// behaviour and timing mode alike. With no keep-plan it is Belady's MIN
// adapted to whole-PW eviction with insertion-time decisions: the resident
// whose next lookup lies furthest in the future goes. It deliberately
// ignores window cost and overlap — the deficiencies the paper demonstrates
// (Figs. 3 and 4) and FLACK repairs. With a FOO/FLACK keep-plan, an unkept
// arrival is bypassed and victims are residents whose current interval the
// plan does not keep (furthest next use among them); when every resident
// is kept, the furthest-next-use resident goes. Victim only runs when the
// set is full, which is exactly FLACK's bypass throttling under SelBypass.
//
// The policy's position in the lookup sequence is the cache's lookup clock
// (Geometry.Clock): it ticks once per lookup in both modes and survives
// Cache.ResetStats, so a warmup reset never misaligns the plan. Victim
// advances the oracle and the per-key plan cursor lazily to that position.
type PlanPolicy struct {
	name string
	o    *Oracle
	pt   *trace.PreparedTrace
	// keep is the plan's decision at each lookup (nil for Belady).
	keep []bool
	// curKeep holds, per dense key id, the plan's decision at the key's
	// latest lookup before next; next is the first lookup not yet folded in.
	curKeep []bool
	next    int
	clock   func() uint64
}

// newPlanPolicy builds the policy over a prepared trace; a nil keep-plan
// means Belady.
func newPlanPolicy(pt *trace.PreparedTrace, keep []bool, name string) *PlanPolicy {
	p := &PlanPolicy{name: name, o: NewOracle(pt), pt: pt, keep: keep}
	if keep != nil {
		p.curKeep = make([]bool, pt.NumKeys())
	}
	return p
}

// NewBeladySchedule builds Belady's policy for the lookup sequence. Of opts
// only Prepared is read (nil = build one).
func NewBeladySchedule(pws []trace.PW, cfg uopcache.Config, opts Options) *PlanPolicy {
	return newPlanPolicy(uopcache.PreparedFor(cfg, pws, opts.Prepared), nil, "belady")
}

// NewFLACKSchedule builds a FOO/FLACK plan policy: decisions are
// precomputed from the lookup sequence with opts.Features, reusing
// opts.Prepared (nil = build one) and opts.Plans (a hit skips the flow
// solve). opts.Workers bounds the solver fan-out (0 = GOMAXPROCS, 1 =
// serial). opts.Ctx (nil = never cancelled) cancels the solve; callers must
// discard the policy when it was cancelled, since its plan is then
// incomplete.
func NewFLACKSchedule(pws []trace.PW, cfg uopcache.Config, opts Options) *PlanPolicy {
	pt := uopcache.PreparedFor(cfg, pws, opts.Prepared)
	dec := computePlan(opts.Ctx, pt, cfg, opts.model(), opts.Features.SelBypass, opts.SegmentLimit, opts.Workers, opts.Plans)
	return newPlanPolicy(pt, dec.Keep, opts.Features.Label())
}

// Name implements uopcache.Policy: "belady", or the plan's feature label.
func (p *PlanPolicy) Name() string { return p.name }

// Bind implements uopcache.Policy, taking the cache's lookup clock (the
// policy keeps no per-slot state).
func (p *PlanPolicy) Bind(g uopcache.Geometry) { p.clock = g.Clock }

// OnHit implements uopcache.Policy.
func (p *PlanPolicy) OnHit(int, int32, uint64) {}

// OnInsert implements uopcache.Policy.
func (p *PlanPolicy) OnInsert(int, int32, trace.PW) {}

// OnEvict implements uopcache.Policy.
func (p *PlanPolicy) OnEvict(int, int32, uint64) {}

// advance moves the oracle and the plan cursor to the lookup the cache's
// clock is at: insertions land before that lookup is served, so its own
// plan decision already applies. The end-of-run flush, after the last
// lookup, stays at the last lookup.
//
//simlint:hotpath
func (p *PlanPolicy) advance() {
	pos := min(int(p.clock()), p.pt.Len()-1)
	p.o.Advance(pos)
	if p.keep == nil {
		return
	}
	for ; p.next <= pos; p.next++ {
		p.curKeep[p.pt.KeyID(p.next)] = p.keep[p.next]
	}
}

// kept reads the plan's current decision for a window; windows the trace
// never looks up, or not yet looked up, are unkept.
//
//simlint:hotpath
func (p *PlanPolicy) kept(key uint64) bool {
	id, ok := p.pt.IDOf(key)
	return ok && p.curKeep[id]
}

// Victim implements uopcache.Policy.
//
//simlint:hotpath
func (p *PlanPolicy) Victim(_ int, residents []uopcache.Resident, incoming trace.PW) uopcache.Decision {
	p.advance()
	// Under pressure, an unkept arrival is bypassed rather than evicting
	// anything.
	if p.keep != nil && !p.kept(incoming.Start) {
		return uopcache.Decision{Bypass: true, Reason: ReasonUnkeptArrival}
	}
	// The furthest next use wins, the smaller key among equals; the
	// victims are indices into residents.
	bestUnkept, bestAny := 0, 0
	unkeptNext, anyNext := -1, -1
	for i := range residents {
		r := &residents[i]
		// One key-id lookup serves both the next use and the plan.
		id, ok := p.pt.IDOf(r.Key)
		n := NoNextUse
		if ok {
			n = p.o.NextUseID(id)
		}
		if n > anyNext || (n == anyNext && r.Key < residents[bestAny].Key) {
			bestAny, anyNext = i, n
		}
		if p.keep != nil && !(ok && p.curKeep[id]) && (n > unkeptNext || (n == unkeptNext && r.Key < residents[bestUnkept].Key)) {
			bestUnkept, unkeptNext = i, n
		}
	}
	if unkeptNext >= 0 {
		return uopcache.Decision{Victim: residents[bestUnkept].Slot, Reason: ReasonUnkeptFurthest, Score: float64(unkeptNext)}
	}
	reason := ReasonKeptFurthest
	if p.keep == nil {
		reason = ReasonFurthestNextUse
	}
	return uopcache.Decision{Victim: residents[bestAny].Slot, Reason: reason, Score: float64(anyNext)}
}
