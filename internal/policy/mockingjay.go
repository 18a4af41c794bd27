package policy

import (
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// Mockingjay (Shah, Jain, Lin — HPCA 2022) mimics Belady's MIN online by
// predicting each block's time to reuse with a reuse-distance predictor
// (RDP) trained from sampled history, then evicting the resident with the
// largest estimated time remaining. The paper notes that for the micro-op
// cache every PC maps to exactly one PW, so the PC-based RDP degenerates to
// per-window reuse-distance tracking — which is how we implement it.
//
// State layout: per-resident last-access times live in a per-slot array and
// per-set clocks in a dense array; the RDP is dense over its 16-bit
// signature space. Only the training history (`last`) is a map: a window's
// last access must outlive its eviction so its reuse distance is learned
// when it reappears. While the window is resident that time is its slot's
// lastAccess, so the history is written only at eviction (invalidations
// included) and read only at insertion; hits touch no map.
type Mockingjay struct {
	// rdp maps a window signature to its EWMA reuse distance measured in
	// set-local accesses; rdpSeen marks trained signatures.
	rdp     []float64
	rdpSeen []bool
	// lastAccess is the set-local clock at each resident slot's last touch.
	lastAccess  []uint64
	slotsPerSet int
	// last maps an evicted window's start to the set clock of its last
	// access for RDP training (set-local: each window belongs to exactly
	// one set).
	last  map[uint64]uint64
	clock []uint64
	// InfiniteRD is the predicted distance for never-seen windows.
	InfiniteRD float64
	// OverdueDamp scales the |ETR| of overdue residents (predicted reuse
	// already passed): 1 treats overdue lines as fully dead, 0 protects
	// them. Intermediate values avoid evicting hot windows whose loop
	// merely paused.
	OverdueDamp float64
	// BypassFactor: bypass the arrival when its predicted reuse distance
	// exceeds this multiple of the worst resident's remaining time.
	BypassFactor float64
}

// mjSigBits sizes the dense RDP (the signature is 16 bits of the mixed PC).
const mjSigBits = 16

// NewMockingjay returns the Mockingjay policy.
func NewMockingjay() *Mockingjay {
	return &Mockingjay{
		rdp:          make([]float64, 1<<mjSigBits),
		rdpSeen:      make([]bool, 1<<mjSigBits),
		last:         make(map[uint64]uint64),
		InfiniteRD:   64,
		OverdueDamp:  1,
		BypassFactor: 0,
	}
}

// Name implements uopcache.Policy.
func (p *Mockingjay) Name() string { return "mockingjay" }

// Bind implements uopcache.Policy.
func (p *Mockingjay) Bind(g uopcache.Geometry) {
	p.slotsPerSet = g.SlotsPerSet
	p.lastAccess = make([]uint64, g.Slots())
	p.clock = make([]uint64, g.Sets)
}

func (p *Mockingjay) sig(pc uint64) uint32 { return uint32(mix(pc) & (1<<mjSigBits - 1)) }

// train folds an observed set-local reuse distance into the RDP.
//
//simlint:hotpath
func (p *Mockingjay) train(pc uint64, d float64) {
	s := p.sig(pc)
	if p.rdpSeen[s] {
		p.rdp[s] = float64(0.75*p.rdp[s]) + float64(0.25*d)
	} else {
		p.rdp[s] = d
		p.rdpSeen[s] = true
	}
}

//simlint:hotpath
func (p *Mockingjay) predictRD(pc uint64) float64 {
	if s := p.sig(pc); p.rdpSeen[s] {
		return p.rdp[s]
	}
	return p.InfiniteRD
}

// OnHit implements uopcache.Policy: the reuse distance runs from the
// resident's previous access, kept in its slot.
//
//simlint:hotpath
func (p *Mockingjay) OnHit(set int, slot int32, pc uint64) {
	i := set*p.slotsPerSet + int(slot)
	p.clock[set]++
	now := p.clock[set]
	p.train(pc, float64(now-p.lastAccess[i]))
	p.lastAccess[i] = now
}

// OnInsert implements uopcache.Policy: a window seen before trains the RDP
// with the distance from its last access before its eviction.
//
//simlint:hotpath
func (p *Mockingjay) OnInsert(set int, slot int32, pw trace.PW) {
	p.clock[set]++
	now := p.clock[set]
	if prev, ok := p.last[pw.Start]; ok {
		p.train(pw.Start, float64(now-prev))
	}
	p.lastAccess[set*p.slotsPerSet+int(slot)] = now
}

// OnEvict implements uopcache.Policy: the window's last access outlives it
// in the training history.
//
//simlint:hotpath
func (p *Mockingjay) OnEvict(set int, slot int32, key uint64) {
	p.last[key] = p.lastAccess[set*p.slotsPerSet+int(slot)]
}

// etr estimates a resident's time remaining until its next use.
//
//simlint:hotpath
func (p *Mockingjay) etr(set int, slot int32, pc uint64) float64 {
	last := float64(p.lastAccess[set*p.slotsPerSet+int(slot)])
	return last + p.predictRD(pc) - float64(p.clock[set])
}

// Victim implements uopcache.Policy: following Mockingjay's ETR rule, evict
// the resident with the largest |estimated time remaining| — either its next
// use is furthest away, or it is long overdue (predicted reuse never came,
// so it is probably dead). Arrivals whose own predicted reuse distance
// exceeds every resident's by a wide margin are bypassed.
//
//simlint:hotpath
func (p *Mockingjay) Victim(set int, residents []uopcache.Resident, incoming trace.PW) uopcache.Decision {
	worst := 0
	worstScore, worstETR := -1.0, 0.0
	first := true
	for i := range residents {
		r := &residents[i]
		e := p.etr(set, r.Slot, r.Key)
		score := e
		if score < 0 {
			score = -score * p.OverdueDamp
		}
		if first || score > worstScore || (score == worstScore && r.Stamp < residents[worst].Stamp) {
			worst, worstScore, worstETR, first = i, score, e, false
		}
	}
	if p.BypassFactor > 0 && worstETR > 0 {
		if in := p.predictRD(incoming.Start); in > p.BypassFactor*worstETR && in >= p.InfiniteRD {
			return uopcache.Decision{Bypass: true, Reason: ReasonBypass, Score: in}
		}
	}
	return uopcache.Decision{Victim: residents[worst].Slot, Reason: ReasonETRFurthest, Score: worstETR}
}
