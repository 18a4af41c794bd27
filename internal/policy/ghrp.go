package policy

import (
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// GHRP implements the Global History Reuse Predictor (Ajorpaz et al., ISCA
// 2018), the strongest prior online policy in the paper's study. It keeps a
// global history of recent window addresses; dead-block predictor tables
// indexed by hashes of (address, history) vote on whether a window is dead
// (will not be reused before eviction). Predicted-dead residents are
// preferred victims and predicted-dead arrivals are bypassed.
//
// Per-resident state (the signature captured at fill/last touch and the
// reused bit) lives in flat per-slot arrays: unlike the other policies this
// state is genuinely history-dependent — the signature must be recorded at
// observation time, it cannot be recomputed from the key later.
type GHRP struct {
	tables      [][]uint8 // saturating counters, one slice per feature table
	history     uint64
	sig         []uint32 // per-slot signature at fill/last touch
	reused      []bool   // per-slot reuse flag
	slotsPerSet int
	// Bypass enables dead-on-arrival bypassing (on in the paper).
	Bypass bool
	// HistoryBits controls how many recent-window hashes fold into each
	// signature: 0 = PC-only (per-window dead-block prediction), larger
	// values correlate predictions with the path leading to the window.
	HistoryBits int
}

const (
	ghrpTables    = 3
	ghrpTableBits = 12
	ghrpCtrMax    = 3
	// ghrpThreshold: a table votes "dead" when its counter is at or
	// above this value; majority of tables decides.
	ghrpThreshold = 2
)

// NewGHRP returns the GHRP policy with bypassing enabled.
func NewGHRP() *GHRP {
	t := make([][]uint8, ghrpTables)
	for i := range t {
		t[i] = make([]uint8, 1<<ghrpTableBits)
	}
	return &GHRP{tables: t, Bypass: true, HistoryBits: 20}
}

// Name implements uopcache.Policy.
func (p *GHRP) Name() string { return "ghrp" }

// Bind implements uopcache.Policy.
func (p *GHRP) Bind(g uopcache.Geometry) {
	p.slotsPerSet = g.SlotsPerSet
	p.sig = make([]uint32, g.Slots())
	p.reused = make([]bool, g.Slots())
}

func (p *GHRP) index(table int, sig uint32) uint32 {
	h := mix(uint64(sig) + uint64(table)*0x9E3779B97F4A7C15)
	return uint32(h) & ((1 << ghrpTableBits) - 1)
}

func (p *GHRP) signature(pc uint64) uint32 {
	h := p.history
	if p.HistoryBits < 64 {
		h &= (1 << uint(p.HistoryBits)) - 1
	}
	return uint32(mix(pc ^ h))
}

// predictDead returns the majority dead vote for a signature.
func (p *GHRP) predictDead(sig uint32) bool {
	votes := 0
	for t := 0; t < ghrpTables; t++ {
		if p.tables[t][p.index(t, sig)] >= ghrpThreshold {
			votes++
		}
	}
	return votes*2 > ghrpTables
}

// train adjusts the tables toward dead (true) or live (false) for sig.
func (p *GHRP) train(sig uint32, dead bool) {
	for t := 0; t < ghrpTables; t++ {
		i := p.index(t, sig)
		if dead {
			if p.tables[t][i] < ghrpCtrMax {
				p.tables[t][i]++
			}
		} else if p.tables[t][i] > 0 {
			p.tables[t][i]--
		}
	}
}

// updateHistory shifts a window address into the global history register.
func (p *GHRP) updateHistory(pc uint64) {
	p.history = (p.history << 5) ^ mix(pc)
}

// OnHit implements uopcache.Policy: a hit proves the previous prediction
// point was live; re-signature the block at its new access.
//
//simlint:hotpath
func (p *GHRP) OnHit(set int, slot int32, pc uint64) {
	i := set*p.slotsPerSet + int(slot)
	p.train(p.sig[i], false)
	p.reused[i] = true
	p.sig[i] = p.signature(pc)
	p.updateHistory(pc)
}

// OnInsert implements uopcache.Policy.
//
//simlint:hotpath
func (p *GHRP) OnInsert(set int, slot int32, pw trace.PW) {
	i := set*p.slotsPerSet + int(slot)
	p.sig[i] = p.signature(pw.Start)
	p.reused[i] = false
	p.updateHistory(pw.Start)
}

// OnEvict implements uopcache.Policy: dying without reuse trains "dead".
//
//simlint:hotpath
func (p *GHRP) OnEvict(set int, slot int32, _ uint64) {
	i := set*p.slotsPerSet + int(slot)
	p.train(p.sig[i], !p.reused[i])
}

// Victim implements uopcache.Policy: bypass dead arrivals; otherwise evict a
// predicted-dead resident (LRU tiebreak), falling back to plain LRU.
//
//simlint:hotpath
func (p *GHRP) Victim(set int, residents []uopcache.Resident, incoming trace.PW) uopcache.Decision {
	if p.Bypass && p.predictDead(p.signature(incoming.Start)) {
		return uopcache.Decision{Bypass: true, Reason: ReasonPredictedDead}
	}
	base := set * p.slotsPerSet
	dead := -1
	for i := range residents {
		if p.predictDead(p.sig[base+int(residents[i].Slot)]) && (dead < 0 || residents[i].Stamp < residents[dead].Stamp) {
			dead = i
		}
	}
	if dead >= 0 {
		r := &residents[dead]
		return uopcache.Decision{Victim: r.Slot, Reason: ReasonPredictedDead, Score: float64(r.Stamp)}
	}
	return lruScan(residents)
}
