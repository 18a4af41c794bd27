package policy

import (
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// DRRIP implements Dynamic RRIP (Jaleel et al.): set dueling between SRRIP
// insertion (RRPV = max-1) and bimodal RRIP insertion (BRRIP: usually
// distant, occasionally long). The paper evaluates static SRRIP only; DRRIP
// is included as an extension baseline to show scan-resistance alone does
// not close the gap to profile-guided policies.
type DRRIP struct {
	rrpv        []uint8
	slotsPerSet int
	// psel is the policy-selection counter: SRRIP wins misses push it
	// one way, BRRIP the other.
	psel int
	// brripCtr throttles BRRIP's rare long-re-reference insertions.
	brripCtr int
	// leader assignment: set % 32 == 0 -> SRRIP leader, == 1 -> BRRIP.
	Stats struct {
		SRRIPInserts, BRRIPInserts uint64
	}
}

// NewDRRIP returns the DRRIP policy.
func NewDRRIP() *DRRIP { return &DRRIP{} }

// Name implements uopcache.Policy.
func (p *DRRIP) Name() string { return "drrip" }

// Bind implements uopcache.Policy.
func (p *DRRIP) Bind(g uopcache.Geometry) {
	p.slotsPerSet = g.SlotsPerSet
	p.rrpv = make([]uint8, g.Slots())
}

// OnHit implements uopcache.Policy.
//
//simlint:hotpath
func (p *DRRIP) OnHit(set int, slot int32, _ uint64) { p.rrpv[set*p.slotsPerSet+int(slot)] = 0 }

const (
	drripLeaderMod = 32
	drripPselMax   = 1023
	drripBRRIPMod  = 32 // 1-in-32 inserts at long re-reference
)

// useSRRIP decides the insertion flavour for a set.
func (p *DRRIP) useSRRIP(set int) bool {
	switch set % drripLeaderMod {
	case 0:
		return true // SRRIP leader
	case 1:
		return false // BRRIP leader
	default:
		return p.psel <= drripPselMax/2 // follower
	}
}

// OnInsert implements uopcache.Policy.
//
//simlint:hotpath
func (p *DRRIP) OnInsert(set int, slot int32, _ trace.PW) {
	i := set*p.slotsPerSet + int(slot)
	if p.useSRRIP(set) {
		p.rrpv[i] = rripMax - 1
		p.Stats.SRRIPInserts++
	} else {
		p.brripCtr++
		if p.brripCtr%drripBRRIPMod == 0 {
			p.rrpv[i] = rripMax - 1
		} else {
			p.rrpv[i] = rripMax
		}
		p.Stats.BRRIPInserts++
	}
}

// OnEvict implements uopcache.Policy.
//
//simlint:hotpath
func (p *DRRIP) OnEvict(int, int32, uint64) {}

// Victim implements uopcache.Policy: the SRRIP scan, with leader-set misses
// training the policy selector (a miss in a leader set votes against its
// policy).
//
//simlint:hotpath
func (p *DRRIP) Victim(set int, residents []uopcache.Resident, _ trace.PW) uopcache.Decision {
	switch set % drripLeaderMod {
	case 0: // SRRIP leader missed
		if p.psel < drripPselMax {
			p.psel++
		}
	case 1: // BRRIP leader missed
		if p.psel > 0 {
			p.psel--
		}
	}
	base := set * p.slotsPerSet
	return srripDecision(p.rrpv, base, residents, srripScan(p.rrpv, base, residents))
}
