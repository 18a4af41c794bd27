package policy

import (
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// FURBYSConfig holds the tunables the paper's sensitivity study sweeps.
type FURBYSConfig struct {
	// WeightBits is the number of bits per weight group (paper default 3
	// bits = 8 groups, swept 1–8 in Fig. 19).
	WeightBits int
	// K is the bypass slack: a new window is bypassed when its weight is
	// below the set's minimum resident weight minus K (paper: K=1).
	K int
	// DetectorDepth is the local miss-pitfall detector's slot count
	// (paper default 2, swept in Fig. 20; 0 disables it).
	DetectorDepth int
	// BypassEnabled toggles the selective bypass mechanism (Fig. 21).
	BypassEnabled bool
	// DefaultWeight is assigned to windows absent from the profile,
	// clamped to [0, MaxWeight].
	DefaultWeight int
}

// DefaultFURBYSConfig returns the paper's chosen configuration.
func DefaultFURBYSConfig() FURBYSConfig {
	return FURBYSConfig{WeightBits: 3, K: 1, DetectorDepth: 2, BypassEnabled: true, DefaultWeight: 2}
}

// MaxWeight returns the largest representable weight group.
func (c FURBYSConfig) MaxWeight() int { return 1<<c.WeightBits - 1 }

// FURBYS is the paper's practical profile-guided replacement policy. Per
// window it keeps a 3-bit weight (its Jenks-grouped whole-execution FLACK
// hit rate, delivered via binary hints — here, the weight map) and 2-bit
// SRRIP metadata; per set it keeps a small miss-pitfall detector recording
// recent evictions. Victims are the minimum-weight residents; when the
// detector sees the same window evicted repeatedly (a globally-hot but
// locally-cold phase) the policy degrades to SRRIP for one decision; and
// arrivals whose weight is below the set minimum minus K are bypassed.
type FURBYS struct {
	cfg FURBYSConfig
	// weights is the profile-derived hint map: window start → group.
	weights map[uint64]uint8
	// maxW and defaultW are the weight clamp and the weight of windows
	// absent from the hint map.
	maxW, defaultW uint8

	rrpv []uint8
	// weight is each resident's hint, looked up once at insertion, as
	// the hint bits arrive with the window; it shares rrpv's allocation.
	weight      []uint8
	slotsPerSet int
	// detector[set] holds the keys of the most recent evictions; slices
	// are nil until a set first evicts, then hold DetectorDepth+1 capacity
	// forever.
	detector [][]uint64
	// bypassDetector[set] holds the keys of the most recent bypasses: a
	// window bypassed twice in a row is locally hot despite its profiled
	// weight (the same pitfall the eviction detector catches), so it is
	// admitted instead. Without this, a stale or cross-input profile can
	// starve a hot window indefinitely.
	bypassDetector [][]uint64
	// srripNext[set] forces the next victim decision in the set to SRRIP.
	srripNext []bool

	Stats FURBYSStats
}

// FURBYSStats counts decision provenance for the paper's coverage numbers
// (Section VI-C: FURBYS selects the victim 88.68% of the time; ~30% of
// insertions are bypassed).
type FURBYSStats struct {
	VictimByWeight uint64
	VictimBySRRIP  uint64
	Bypasses       uint64
	InsertAttempts uint64
}

// VictimCoverage returns the fraction of victim decisions made by the
// weight mechanism rather than the SRRIP fallback.
func (s FURBYSStats) VictimCoverage() float64 {
	t := s.VictimByWeight + s.VictimBySRRIP
	if t == 0 {
		return 1
	}
	return float64(s.VictimByWeight) / float64(t)
}

// NewFURBYS builds the policy from a weight map (see package profiles for
// how the map is produced from FLACK decisions).
func NewFURBYS(cfg FURBYSConfig, weights map[uint64]uint8) *FURBYS {
	if cfg.WeightBits <= 0 {
		cfg = DefaultFURBYSConfig()
	}
	// Hints are 8-bit, the hint map's value type.
	maxW := min(cfg.MaxWeight(), 255)
	return &FURBYS{
		cfg: cfg, weights: weights,
		maxW: uint8(maxW), defaultW: uint8(max(min(cfg.DefaultWeight, maxW), 0)),
	}
}

// Name implements uopcache.Policy.
func (p *FURBYS) Name() string { return "furbys" }

// Bind implements uopcache.Policy.
func (p *FURBYS) Bind(g uopcache.Geometry) {
	p.slotsPerSet = g.SlotsPerSet
	n := g.Slots()
	meta := make([]uint8, 2*n)
	p.rrpv, p.weight = meta[:n:n], meta[n:]
	p.detector = make([][]uint64, g.Sets)
	p.bypassDetector = make([][]uint64, g.Sets)
	p.srripNext = make([]bool, g.Sets)
}

// Config returns the policy configuration.
func (p *FURBYS) Config() FURBYSConfig { return p.cfg }

// weightOf reads a window's hint: its group in the hint map, clamped to the
// configured width, or the default weight when the map lacks it.
//
//simlint:hotpath
func (p *FURBYS) weightOf(pc uint64) uint8 {
	if w, ok := p.weights[pc]; ok {
		return min(w, p.maxW)
	}
	return p.defaultW
}

// OnHit implements uopcache.Policy.
//
//simlint:hotpath
func (p *FURBYS) OnHit(set int, slot int32, _ uint64) { p.rrpv[set*p.slotsPerSet+int(slot)] = 0 }

// OnInsert implements uopcache.Policy: RRPV initialized to 2 per the paper.
//
//simlint:hotpath
func (p *FURBYS) OnInsert(set int, slot int32, pw trace.PW) {
	i := set*p.slotsPerSet + int(slot)
	p.rrpv[i] = 2
	p.weight[i] = p.weightOf(pw.Start)
}

// OnEvict implements uopcache.Policy.
//
//simlint:hotpath
func (p *FURBYS) OnEvict(int, int32, uint64) {}

// recordIn pushes key into a bounded per-set detector window and reports
// whether it was already recorded. The slice is allocated once per set at
// DetectorDepth+1 capacity; afterwards the copy-down truncation keeps spare
// capacity at the tail so appends never reallocate.
//
//simlint:hotpath
func (p *FURBYS) recordIn(dets [][]uint64, set int, key uint64) bool {
	d := dets[set]
	if d == nil {
		d = make([]uint64, 0, p.cfg.DetectorDepth+1)
	}
	repeated := false
	for _, k := range d {
		if k == key {
			repeated = true
			break
		}
	}
	d = append(d, key)
	if len(d) > p.cfg.DetectorDepth {
		n := copy(d, d[len(d)-p.cfg.DetectorDepth:])
		d = d[:n]
	}
	dets[set] = d
	return repeated
}

// recordEviction pushes a victim into the set's pitfall detector and reports
// whether the same window was already recorded (a repeated eviction — the
// local miss-pitfall signal).
//
//simlint:hotpath
func (p *FURBYS) recordEviction(set int, victim uint64) bool {
	if p.cfg.DetectorDepth <= 0 {
		return false
	}
	return p.recordIn(p.detector, set, victim)
}

// recordBypass pushes a bypassed window into the set's bypass detector and
// reports whether it was already recorded (a repeated bypass).
//
//simlint:hotpath
func (p *FURBYS) recordBypass(set int, key uint64) bool {
	if p.cfg.DetectorDepth <= 0 {
		return false
	}
	return p.recordIn(p.bypassDetector, set, key)
}

// Victim implements uopcache.Policy.
//
//simlint:hotpath
func (p *FURBYS) Victim(set int, residents []uopcache.Resident, incoming trace.PW) uopcache.Decision {
	p.Stats.InsertAttempts++
	base := set * p.slotsPerSet
	// Find the minimum-weight resident (min module in Fig. 7) with
	// LRU tiebreak.
	minI := 0
	minW := p.weight[base+int(residents[0].Slot)]
	for i := 1; i < len(residents); i++ {
		w := p.weight[base+int(residents[i].Slot)]
		switch {
		case w < minW:
			minI, minW = i, w
		case w == minW && residents[i].Stamp < residents[minI].Stamp:
			minI = i
		}
	}
	// Selective bypass: the pending window's weight is compared with the
	// set minimum (step 3 in Fig. 7). A window the detector has seen
	// bypassed recently is locally hot regardless of its profiled
	// weight, so it is admitted — the bypass-side analogue of the local
	// miss-pitfall detector.
	if p.cfg.BypassEnabled {
		if in := p.weightOf(incoming.Start); int(in) < int(minW)-p.cfg.K && !p.recordBypass(set, incoming.Start) {
			p.Stats.Bypasses++
			return uopcache.Decision{Bypass: true, Reason: ReasonBypass, Score: float64(in)}
		}
	}
	// Local miss-pitfall handling: if a previous decision flagged this
	// set, make exactly one SRRIP decision, then resume normal operation.
	if p.srripNext[set] {
		p.srripNext[set] = false
		b := srripScan(p.rrpv, base, residents)
		p.Stats.VictimBySRRIP++
		p.recordEviction(set, residents[b].Key)
		return srripDecision(p.rrpv, base, residents, b)
	}
	// Normal FURBYS decision; a repeated eviction of the same window arms
	// the SRRIP fallback for the next decision in this set.
	if p.recordEviction(set, residents[minI].Key) {
		p.srripNext[set] = true
	}
	p.Stats.VictimByWeight++
	return uopcache.Decision{Victim: residents[minI].Slot, Reason: ReasonMinWeight, Score: float64(minW)}
}
