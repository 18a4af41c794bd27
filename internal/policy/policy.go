// Package policy implements every online micro-op cache replacement policy
// the paper evaluates: the LRU baseline, Random, SRRIP, SHiP++, GHRP,
// Mockingjay, the profile-guided Thermometer, and the paper's contribution
// FURBYS. All of them implement uopcache.Policy at whole-PW granularity.
//
// Metadata layout: uopcache.Policy passes a stable (set, slot) handle with
// every event, and each policy keeps its per-resident state (RRPV bits,
// signatures, weights) in flat arrays indexed by set*slotsPerSet+slot — the
// same shape as hardware's per-way metadata bits, and map-free on the hot
// path. Recency is not among them: the cache stamps every hit and insertion
// and hands each resident's stamp to Victim, so LRU keeps no state at all
// and every policy that ranks or breaks ties by recency reads the same
// order.
//
// Determinism note: resident views arrive in slot (way) order, which is
// itself deterministic — slot assignment depends only on the event sequence.
// Each policy still derives its victim from a total order (its criterion,
// then the cache's unique recency stamp), never from raw slice position, so
// view order is immaterial to the decision.
package policy

import (
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// Decision reason vocabulary. Each policy stamps its Victim decisions with
// one of these constant strings (plus a policy-specific losing score) so the
// introspection layer can attribute evictions without re-deriving policy
// state. Constants, not fmt: the hot path must not allocate.
const (
	// ReasonLRUOldest: victim had the smallest recency stamp.
	ReasonLRUOldest = "lru_oldest"
	// ReasonRandom: victim drawn by the salted-hash pseudo-random pick.
	ReasonRandom = "random_draw"
	// ReasonRRPVDistant: victim was at the distant re-reference value
	// (RRIP family: SRRIP, SHiP++, DRRIP).
	ReasonRRPVDistant = "rrpv_distant"
	// ReasonPredictedDead: a reuse predictor classified the victim dead
	// (GHRP dead-block prediction).
	ReasonPredictedDead = "predicted_dead"
	// ReasonETRFurthest: victim had the largest estimated time remaining
	// (Mockingjay).
	ReasonETRFurthest = "etr_furthest"
	// ReasonColdestClass: victim was in the coldest profile temperature
	// class (Thermometer).
	ReasonColdestClass = "coldest_class"
	// ReasonMinWeight: victim had the smallest profile weight (FURBYS).
	ReasonMinWeight = "min_weight"
	// ReasonBypass: the incoming window was declined instead of evicting.
	ReasonBypass = "bypass_incoming"
)

// lruScan evicts the least recently used resident, the one with the
// smallest stamp, scored by that stamp (the baseline LRU and GHRP's
// fallback).
//
//simlint:hotpath
func lruScan(residents []uopcache.Resident) uopcache.Decision {
	b := 0
	for i := 1; i < len(residents); i++ {
		if residents[i].Stamp < residents[b].Stamp {
			b = i
		}
	}
	return uopcache.Decision{Victim: residents[b].Slot, Reason: ReasonLRUOldest, Score: float64(residents[b].Stamp)}
}

// ---------------------------------------------------------------------------
// LRU

// LRU is the least-recently-used baseline the paper normalizes against. The
// cache's recency stamps are all it reads, so it keeps no state.
type LRU struct{}

// NewLRU returns the LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements uopcache.Policy.
func (p *LRU) Name() string { return "lru" }

// Bind implements uopcache.Policy (stateless; nothing to size).
func (p *LRU) Bind(uopcache.Geometry) {}

// OnHit implements uopcache.Policy.
//
//simlint:hotpath
func (p *LRU) OnHit(int, int32, uint64) {}

// OnInsert implements uopcache.Policy.
//
//simlint:hotpath
func (p *LRU) OnInsert(int, int32, trace.PW) {}

// OnEvict implements uopcache.Policy.
//
//simlint:hotpath
func (p *LRU) OnEvict(int, int32, uint64) {}

// Victim implements uopcache.Policy: evict the least recently used window.
//
//simlint:hotpath
func (p *LRU) Victim(_ int, residents []uopcache.Resident, _ trace.PW) uopcache.Decision {
	return lruScan(residents)
}

// ---------------------------------------------------------------------------
// Random

// Random evicts a pseudo-random resident; a sanity baseline.
type Random struct {
	state uint64
}

// NewRandom returns the random policy seeded deterministically.
func NewRandom(seed uint64) *Random {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Random{state: seed}
}

// Name implements uopcache.Policy.
func (p *Random) Name() string { return "random" }

// Bind implements uopcache.Policy (stateless; nothing to size).
func (p *Random) Bind(uopcache.Geometry) {}

// OnHit implements uopcache.Policy.
//
//simlint:hotpath
func (p *Random) OnHit(int, int32, uint64) {}

// OnInsert implements uopcache.Policy.
//
//simlint:hotpath
func (p *Random) OnInsert(int, int32, trace.PW) {}

// OnEvict implements uopcache.Policy.
//
//simlint:hotpath
func (p *Random) OnEvict(int, int32, uint64) {}

func (p *Random) next() uint64 {
	// xorshift64*
	p.state ^= p.state >> 12
	p.state ^= p.state << 25
	p.state ^= p.state >> 27
	return p.state * 0x2545F4914F6CDD1D
}

// Victim implements uopcache.Policy. To stay independent of the snapshot's
// order, the victim is the resident with the smallest salted-hashed key.
//
//simlint:hotpath
func (p *Random) Victim(_ int, residents []uopcache.Resident, _ trace.PW) uopcache.Decision {
	salt := p.next()
	best := residents[0].Slot
	bestH := mix(residents[0].Key ^ salt)
	for _, r := range residents[1:] {
		if h := mix(r.Key ^ salt); h < bestH {
			best, bestH = r.Slot, h
		}
	}
	return uopcache.Decision{Victim: best, Reason: ReasonRandom, Score: float64(bestH)}
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}
