// Package branch implements the frontend branch prediction stack of the
// paper's Table I configuration: a TAGE-lite conditional direction predictor
// (bimodal base + geometric-history tagged tables standing in for the 64KB
// TAGE-SC-L), an 8192-entry 4-way BTB, a 32-entry return address stack, and
// a 4096-entry indirect BTB. The timing simulator uses it for misprediction
// resteers and for branch-MPKI statistics (Table II); the behaviour-mode
// replacement studies do not need it.
package branch

import "uopsim/internal/trace"

// Config sizes the predictor stack; DefaultConfig matches Table I.
type Config struct {
	BTBEntries  int
	BTBWays     int
	RASEntries  int
	IBTBEntries int
	// BimodalBits sizes the base table (2^bits counters).
	BimodalBits int
	// TaggedBits sizes each tagged table (2^bits entries).
	TaggedBits int
	// HistLens are the geometric global-history lengths of the tagged
	// tables, one table per entry up to the first zero. An array, not a
	// slice, keeps Config comparable, so a config can key a map and be
	// compared with ==.
	HistLens [MaxTaggedTables]int
}

// MaxTaggedTables bounds the tagged tables a Config can describe.
const MaxTaggedTables = 4

// DefaultConfig returns the paper's Zen3-like predictor configuration.
func DefaultConfig() Config {
	return Config{
		BTBEntries:  8192,
		BTBWays:     4,
		RASEntries:  32,
		IBTBEntries: 4096,
		BimodalBits: 14,
		TaggedBits:  10,
		HistLens:    [MaxTaggedTables]int{8, 32, 128},
	}
}

// Zen4Config returns a larger frontend configuration for the paper's Fig. 17
// sensitivity study (bigger BTB and history).
func Zen4Config() Config {
	return Config{
		BTBEntries:  12288,
		BTBWays:     6,
		RASEntries:  48,
		IBTBEntries: 6144,
		BimodalBits: 15,
		TaggedBits:  11,
		HistLens:    [MaxTaggedTables]int{8, 32, 128, 256},
	}
}

// Stats counts predictor activity.
type Stats struct {
	Branches          uint64
	CondBranches      uint64
	DirMispredicts    uint64
	TargetMispredicts uint64
	BTBMisses         uint64
	Instructions      uint64
}

// Mispredicts returns total mispredictions (direction + target).
func (s Stats) Mispredicts() uint64 { return s.DirMispredicts + s.TargetMispredicts }

// MPKI returns branch mispredictions per kilo-instruction.
func (s Stats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Mispredicts()) / float64(s.Instructions) * 1000
}

// Predictor is the combined frontend prediction stack.
type Predictor struct {
	cfg Config

	bimodal []uint8
	tagged  []taggedTable
	hist    uint64 // global history (newest outcome in bit 0)

	btb    *btb
	ras    []uint64
	rasTop int
	ibtb   []uint64

	Stats Stats
}

type taggedEntry struct {
	tag    uint16
	ctr    int8 // -4..3 (taken when >= 0)
	useful uint8
}

type taggedTable struct {
	entries []taggedEntry
	histLen int
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	p := &Predictor{cfg: cfg}
	p.bimodal = make([]uint8, 1<<cfg.BimodalBits)
	for i := range p.bimodal {
		p.bimodal[i] = 1 // weakly not taken
	}
	for _, hl := range cfg.HistLens {
		if hl == 0 {
			break
		}
		p.tagged = append(p.tagged, taggedTable{
			entries: make([]taggedEntry, 1<<cfg.TaggedBits),
			histLen: hl,
		})
	}
	p.btb = newBTB(cfg.BTBEntries, cfg.BTBWays)
	p.ras = make([]uint64, cfg.RASEntries)
	p.ibtb = make([]uint64, cfg.IBTBEntries)
	return p
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// foldHistory compresses the low histLen bits of the global history.
func foldHistory(hist uint64, histLen, outBits int) uint64 {
	if histLen < 64 {
		hist &= (1 << uint(histLen)) - 1
	}
	var folded uint64
	for hist != 0 {
		folded ^= hist & ((1 << uint(outBits)) - 1)
		hist >>= uint(outBits)
	}
	return folded
}

func (p *Predictor) taggedIndex(t int, pc uint64) (idx int, tag uint16) {
	tab := &p.tagged[t]
	h := foldHistory(p.hist, tab.histLen, p.cfg.TaggedBits)
	idx = int((mix64(pc) ^ h ^ uint64(t)*0x9E37) & uint64(len(tab.entries)-1))
	tag = uint16(mix64(pc^h*2654435761) & 0xFF)
	return idx, tag
}

// predictDir returns the predicted direction of a conditional branch and
// which provider made the prediction (-1 = bimodal).
func (p *Predictor) predictDir(pc uint64) (taken bool, provider int) {
	provider = -1
	bi := int(mix64(pc) & uint64(len(p.bimodal)-1))
	taken = p.bimodal[bi] >= 2
	for t := 0; t < len(p.tagged); t++ {
		idx, tag := p.taggedIndex(t, pc)
		if p.tagged[t].entries[idx].tag == tag {
			taken = p.tagged[t].entries[idx].ctr >= 0
			provider = t
		}
	}
	return taken, provider
}

// updateDir trains the direction predictor with the actual outcome.
func (p *Predictor) updateDir(pc uint64, taken, predicted bool, provider int) {
	bi := int(mix64(pc) & uint64(len(p.bimodal)-1))
	if provider < 0 {
		if taken && p.bimodal[bi] < 3 {
			p.bimodal[bi]++
		} else if !taken && p.bimodal[bi] > 0 {
			p.bimodal[bi]--
		}
	} else {
		idx, _ := p.taggedIndex(provider, pc)
		e := &p.tagged[provider].entries[idx]
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
		if predicted == taken && e.useful < 3 {
			e.useful++
		}
	}
	// On a misprediction, allocate in a longer-history table.
	if predicted != taken && provider < len(p.tagged)-1 {
		t := provider + 1
		idx, tag := p.taggedIndex(t, pc)
		e := &p.tagged[t].entries[idx]
		if e.useful == 0 {
			e.tag = tag
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
		} else {
			e.useful--
		}
	}
}

// Outcome reports how a dynamic block's terminating branch was predicted.
type Outcome struct {
	// Mispredicted is true when direction or target was wrong.
	Mispredicted bool
	// BTBMiss is true when the branch had no BTB entry (front-end
	// re-steer at decode, cheaper than a full misprediction).
	BTBMiss bool
}

// Process predicts and trains on a dynamic block's terminating branch,
// updating statistics. Blocks without branches only count instructions.
func (p *Predictor) Process(b trace.Block) Outcome {
	p.Stats.Instructions += uint64(b.NumInst)
	if !b.Kind.IsBranch() {
		return Outcome{}
	}
	p.Stats.Branches++
	var out Outcome
	pc := b.BranchPC

	// Target prediction via BTB (all branches consult it).
	btbTarget, btbHit := p.btb.lookup(pc)
	if !btbHit {
		p.Stats.BTBMisses++
		out.BTBMiss = true
	}

	switch b.Kind {
	case trace.BranchNone:
		// Unreachable: filtered by the IsBranch guard above. Listed so the
		// switch stays exhaustive if a new BranchKind is added.
	case trace.BranchCond:
		p.Stats.CondBranches++
		pred, provider := p.predictDir(pc)
		p.updateDir(pc, b.Taken, pred, provider)
		p.hist = p.hist<<1 | boolBit(b.Taken)
		if pred != b.Taken {
			p.Stats.DirMispredicts++
			out.Mispredicted = true
		} else if b.Taken && btbHit && btbTarget != b.Target {
			p.Stats.TargetMispredicts++
			out.Mispredicted = true
		}
	case trace.BranchRet:
		target := p.rasPop()
		if target != b.Target && b.Target != 0 {
			p.Stats.TargetMispredicts++
			out.Mispredicted = true
		}
	case trace.BranchCall:
		p.rasPush(b.FallThrough())
		p.hist = p.hist<<1 | 1
	case trace.BranchIndirect:
		idx := int(mix64(pc) & uint64(len(p.ibtb)-1))
		if p.ibtb[idx] != b.Target {
			p.Stats.TargetMispredicts++
			out.Mispredicted = true
		}
		p.ibtb[idx] = b.Target
		p.hist = p.hist<<1 | 1
	case trace.BranchUncond:
		if btbHit && btbTarget != b.Target {
			p.Stats.TargetMispredicts++
			out.Mispredicted = true
		}
	}
	if b.Taken {
		p.btb.update(pc, b.Target)
	}
	return out
}

func (p *Predictor) rasPush(addr uint64) {
	p.ras[p.rasTop%len(p.ras)] = addr
	p.rasTop++
}

func (p *Predictor) rasPop() uint64 {
	if p.rasTop == 0 {
		return 0
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)]
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- BTB ---

type btbEntry struct {
	tag    uint64
	target uint64
	// lastUse is a monotonically increasing stamp for LRU; the clock ticks
	// before every fill, so 0 marks an invalid entry.
	lastUse uint64
}

func (e *btbEntry) valid() bool { return e.lastUse != 0 }

// btb is a set-associative BTB with true-LRU replacement. Its entries sit in
// one backing array, set s occupying entries[s*ways : (s+1)*ways].
type btb struct {
	entries []btbEntry
	ways    int
	nsets   uint64
	clock   uint64
}

func newBTB(entries, ways int) *btb {
	nsets := entries / ways
	return &btb{entries: make([]btbEntry, nsets*ways), ways: ways, nsets: uint64(nsets)}
}

func (b *btb) index(pc uint64) (int, uint64) {
	h := mix64(pc)
	return int(h % b.nsets), h / b.nsets
}

// set returns set s's ways.
func (b *btb) set(s int) []btbEntry {
	return b.entries[s*b.ways : (s+1)*b.ways]
}

func (b *btb) lookup(pc uint64) (uint64, bool) {
	b.clock++
	set, tag := b.index(pc)
	ways := b.set(set)
	for i := range ways {
		e := &ways[i]
		if e.valid() && e.tag == tag {
			e.lastUse = b.clock
			return e.target, true
		}
	}
	return 0, false
}

func (b *btb) update(pc, target uint64) {
	b.clock++
	set, tag := b.index(pc)
	ways := b.set(set)
	victim := 0
	for i := range ways {
		if ways[i].valid() && ways[i].tag == tag {
			ways[i].target = target
			ways[i].lastUse = b.clock
			return
		}
		if !ways[i].valid() {
			victim = i
		} else if ways[victim].valid() && ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	ways[victim] = btbEntry{tag: tag, target: target, lastUse: b.clock}
}
