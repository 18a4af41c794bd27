package policy

import (
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// rripMax is the distant re-reference value for 2-bit RRPV (the paper's
// SRRIP configuration stores 2 bits per entry).
const rripMax = 3

// srripScan is the RRIP victim scan shared by SRRIP, SHiP++, DRRIP, and
// FURBYS's SRRIP fallback: return the index of the least recently used
// resident at the distant RRPV, ageing the whole set until one exists. rrpv
// is a per-slot array over the whole cache; base = set*slotsPerSet.
//
//simlint:hotpath
func srripScan(rrpv []uint8, base int, residents []uopcache.Resident) int {
	for {
		b := -1
		for i := range residents {
			if rrpv[base+int(residents[i].Slot)] >= rripMax && (b < 0 || residents[i].Stamp < residents[b].Stamp) {
				b = i
			}
		}
		if b >= 0 {
			return b
		}
		for i := range residents {
			rrpv[base+int(residents[i].Slot)]++
		}
	}
}

// srripDecision evicts residents[b], scored by its RRPV.
//
//simlint:hotpath
func srripDecision(rrpv []uint8, base int, residents []uopcache.Resident, b int) uopcache.Decision {
	v := residents[b].Slot
	return uopcache.Decision{Victim: v, Reason: ReasonRRPVDistant, Score: float64(rrpv[base+int(v)])}
}

// SRRIP implements Static Re-Reference Interval Prediction (Jaleel et al.)
// at whole-PW granularity: 2-bit RRPV per window, inserted at long
// re-reference (rripMax-1), promoted to 0 on hit; the victim is a window at
// rripMax, ageing the whole set when none exists.
type SRRIP struct {
	rrpv        []uint8
	slotsPerSet int
}

// NewSRRIP returns the SRRIP policy.
func NewSRRIP() *SRRIP { return &SRRIP{} }

// Name implements uopcache.Policy.
func (p *SRRIP) Name() string { return "srrip" }

// Bind implements uopcache.Policy.
func (p *SRRIP) Bind(g uopcache.Geometry) {
	p.slotsPerSet = g.SlotsPerSet
	p.rrpv = make([]uint8, g.Slots())
}

// OnHit implements uopcache.Policy.
//
//simlint:hotpath
func (p *SRRIP) OnHit(set int, slot int32, _ uint64) { p.rrpv[set*p.slotsPerSet+int(slot)] = 0 }

// OnInsert implements uopcache.Policy.
//
//simlint:hotpath
func (p *SRRIP) OnInsert(set int, slot int32, _ trace.PW) {
	p.rrpv[set*p.slotsPerSet+int(slot)] = rripMax - 1
}

// OnEvict implements uopcache.Policy.
//
//simlint:hotpath
func (p *SRRIP) OnEvict(int, int32, uint64) {}

// Victim implements uopcache.Policy.
//
//simlint:hotpath
func (p *SRRIP) Victim(set int, residents []uopcache.Resident, _ trace.PW) uopcache.Decision {
	base := set * p.slotsPerSet
	return srripDecision(p.rrpv, base, residents, srripScan(p.rrpv, base, residents))
}

// ---------------------------------------------------------------------------
// SHiP++

// shctBits sizes the Signature History Counter Table (14-bit hash per the
// paper's description of SHiP++).
const shctBits = 14

// SHiPPP implements SHiP++ (Young et al.): a signature history counter
// table predicts whether a window inserted by a given signature (hash of the
// window start, the miss-causing PC) will be reused; never-reused signatures
// are inserted at distant RRPV so SRRIP evicts them quickly.
type SHiPPP struct {
	rrpv        []uint8
	reused      []bool
	sig         []uint32
	slotsPerSet int
	shct        []uint8 // 3-bit counters
}

// NewSHiPPP returns the SHiP++ policy.
func NewSHiPPP() *SHiPPP {
	t := make([]uint8, 1<<shctBits)
	for i := range t {
		t[i] = 1 // weakly reused, per SHiP++'s optimistic start
	}
	return &SHiPPP{shct: t}
}

// Name implements uopcache.Policy.
func (p *SHiPPP) Name() string { return "ship++" }

// Bind implements uopcache.Policy.
func (p *SHiPPP) Bind(g uopcache.Geometry) {
	p.slotsPerSet = g.SlotsPerSet
	p.rrpv = make([]uint8, g.Slots())
	p.reused = make([]bool, g.Slots())
	p.sig = make([]uint32, g.Slots())
}

func signature(pc uint64) uint32 {
	return uint32(mix(pc) & ((1 << shctBits) - 1))
}

// OnHit implements uopcache.Policy.
//
//simlint:hotpath
func (p *SHiPPP) OnHit(set int, slot int32, _ uint64) {
	i := set*p.slotsPerSet + int(slot)
	p.rrpv[i] = 0
	if !p.reused[i] {
		p.reused[i] = true
		s := p.sig[i]
		if p.shct[s] < 7 {
			p.shct[s]++
		}
	}
}

// OnInsert implements uopcache.Policy.
//
//simlint:hotpath
func (p *SHiPPP) OnInsert(set int, slot int32, pw trace.PW) {
	i := set*p.slotsPerSet + int(slot)
	s := signature(pw.Start)
	p.sig[i] = s
	p.reused[i] = false
	if p.shct[s] == 0 {
		p.rrpv[i] = rripMax // predicted dead: distant insertion
	} else {
		p.rrpv[i] = rripMax - 1
	}
}

// OnEvict implements uopcache.Policy.
//
//simlint:hotpath
func (p *SHiPPP) OnEvict(set int, slot int32, _ uint64) {
	i := set*p.slotsPerSet + int(slot)
	if !p.reused[i] {
		s := p.sig[i]
		if p.shct[s] > 0 {
			p.shct[s]--
		}
	}
}

// Victim implements uopcache.Policy (SRRIP victim scan).
//
//simlint:hotpath
func (p *SHiPPP) Victim(set int, residents []uopcache.Resident, _ trace.PW) uopcache.Decision {
	base := set * p.slotsPerSet
	return srripDecision(p.rrpv, base, residents, srripScan(p.rrpv, base, residents))
}
