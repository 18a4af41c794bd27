package offline

import (
	"sort"

	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// SchedulePolicy packages an offline plan (Belady's oracle or a FOO/FLACK
// keep schedule) as a plain uopcache.Policy so the TIMING simulator can run
// offline policies too (the paper's Fig. 11 reports FLACK IPC). Because the
// timing frontend walks the very PW sequence FormPWs produces, the policy only needs to know the current lookup position — supplied by
// Bind, typically reading the cache's lookup counter.
type SchedulePolicy struct {
	name string
	o    *Oracle
	// pt's occurrence index maps a window to the positions of its
	// lookups; keep holds the plan's decision at each (nil for Belady:
	// pure oracle).
	pt   *trace.PreparedTrace
	keep []bool
	pos  func() int
}

// NewBeladySchedule builds a timing-compatible Belady policy for the lookup
// sequence. Of opts only Prepared is read (nil = build one).
func NewBeladySchedule(pws []trace.PW, cfg uopcache.Config, opts Options) *SchedulePolicy {
	pt := uopcache.PreparedFor(cfg, pws, opts.Prepared)
	return &SchedulePolicy{name: "belady", o: NewOracle(pt), pt: pt}
}

// NewFLACKSchedule builds a timing-compatible FOO/FLACK policy: decisions
// are precomputed from the lookup sequence with opts.Features, reusing
// opts.Prepared (nil = build one) and opts.Plans (a hit skips the flow
// solve). opts.Workers bounds the solver fan-out (0 = GOMAXPROCS, 1 =
// serial). opts.Ctx (nil = never cancelled) cancels the solve; callers must
// discard the policy when it was cancelled, since its plan is then
// incomplete.
func NewFLACKSchedule(pws []trace.PW, cfg uopcache.Config, opts Options) *SchedulePolicy {
	pt := uopcache.PreparedFor(cfg, pws, opts.Prepared)
	dec := computePlan(opts.Ctx, pt, cfg, opts.model(), opts.Features.SelBypass, opts.SegmentLimit, opts.Workers, opts.Plans)
	return &SchedulePolicy{name: opts.Features.Label(), o: NewOracle(pt), pt: pt, keep: dec.Keep}
}

// BindPos supplies the current-lookup-position callback; it must be called
// before the first Victim decision.
func (p *SchedulePolicy) BindPos(pos func() int) { p.pos = pos }

// Bind implements uopcache.Policy (plan-driven; no per-slot state).
func (p *SchedulePolicy) Bind(uopcache.Geometry) {}

// Name implements uopcache.Policy.
func (p *SchedulePolicy) Name() string { return p.name }

// OnHit implements uopcache.Policy.
func (p *SchedulePolicy) OnHit(int, int32, uint64) {}

// OnInsert implements uopcache.Policy.
func (p *SchedulePolicy) OnInsert(int, int32, trace.PW) {}

// OnEvict implements uopcache.Policy.
func (p *SchedulePolicy) OnEvict(int, int32, uint64) {}

// keptNow reports the plan's decision at the window's most recent lookup at
// or before pos. Windows outside the plan default to unkept.
func (p *SchedulePolicy) keptNow(key uint64, pos int) bool {
	if p.keep == nil {
		return true // Belady: no plan, victims by oracle only
	}
	id, ok := p.pt.IDOf(key)
	if !ok {
		return false
	}
	occ := p.pt.Occurrences(id)
	// Last occurrence <= pos.
	i := sort.Search(len(occ), func(i int) bool { return int(occ[i]) > pos }) - 1
	if i < 0 {
		return false
	}
	return p.keep[occ[i]]
}

// Victim implements uopcache.Policy.
func (p *SchedulePolicy) Victim(_ int, residents []uopcache.Resident, incoming trace.PW) uopcache.Decision {
	pos := 0
	if p.pos != nil {
		pos = p.pos()
	}
	p.o.Advance(pos)
	if p.keep != nil && !p.keptNow(incoming.Start, pos) {
		return uopcache.Decision{Bypass: true, Reason: ReasonUnkeptArrival}
	}
	var bestUnkept, bestAny uint64
	unkeptNext, anyNext := -1, -1
	for _, r := range residents {
		n := p.o.NextUse(r.Key)
		if n > anyNext || (n == anyNext && r.Key < bestAny) {
			bestAny, anyNext = r.Key, n
		}
		if p.keep != nil && !p.keptNow(r.Key, pos) {
			if n > unkeptNext || (n == unkeptNext && r.Key < bestUnkept) {
				bestUnkept, unkeptNext = r.Key, n
			}
		}
	}
	if unkeptNext >= 0 {
		return uopcache.Decision{VictimKey: bestUnkept, Reason: ReasonUnkeptFurthest, Score: float64(unkeptNext)}
	}
	if p.keep != nil {
		return uopcache.Decision{VictimKey: bestAny, Reason: ReasonKeptFurthest, Score: float64(anyNext)}
	}
	return uopcache.Decision{VictimKey: bestAny, Reason: ReasonFurthestNextUse, Score: float64(anyNext)}
}
