// Package branch implements the frontend branch prediction stack of the
// paper's Table I configuration: a TAGE-lite conditional direction predictor
// (bimodal base + geometric-history tagged tables standing in for the 64KB
// TAGE-SC-L), an 8192-entry 4-way BTB with true-LRU replacement kept as
// each set's recency order, a 32-entry return address stack, and a
// 4096-entry indirect BTB. The timing simulator uses it for misprediction
// resteers and for branch-MPKI statistics (Table II); the behaviour-mode
// replacement studies do not need it.
package branch

import (
	"fmt"
	"math/bits"

	"uopsim/internal/trace"
)

// Config sizes the predictor stack; DefaultConfig matches Table I.
type Config struct {
	// BTBEntries/BTBWays is the BTB's set count, which must be a power
	// of two.
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

// taggedTable is one tagged table. Its index and tag hash the branch PC
// with folded, the table's last histLen outcomes of the global history
// XOR-folded into TaggedBits bits: history bit i lands on folded bit
// i mod TaggedBits. push keeps folded up to date on every history shift.
type taggedTable struct {
	entries []taggedEntry
	folded  uint64
	// leaving is the history bit that drops out of the table's window on
	// the next push, min(histLen, 64) - 1; it lands on folded bit outPos,
	// min(histLen, 64) mod TaggedBits, once the fold is rotated.
	leaving, outPos uint
}

// dirIndex holds one conditional branch's bimodal index and, per tagged
// table, its index and tag. predictDir computes them and updateDir reuses
// them: the history does not move between the two calls.
type dirIndex struct {
	bimodal int
	idx     [MaxTaggedTables]int
	tag     [MaxTaggedTables]uint16
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
		window := uint(min(hl, 64))
		p.tagged = append(p.tagged, taggedTable{
			entries: make([]taggedEntry, 1<<cfg.TaggedBits),
			leaving: window - 1,
			outPos:  window % uint(cfg.TaggedBits),
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

// push shifts one outcome into the global history and every tagged
// table's folded history: the fold rotates left by one within TaggedBits,
// the new outcome enters at bit 0, and the outcome leaving the table's
// window leaves at bit outPos.
func (p *Predictor) push(bit uint64) {
	width := uint(p.cfg.TaggedBits)
	mask := uint64(1)<<width - 1
	for t := range p.tagged {
		tab := &p.tagged[t]
		f := (tab.folded<<1 | tab.folded>>(width-1)) & mask
		tab.folded = f ^ bit ^ (p.hist>>tab.leaving&1)<<tab.outPos
	}
	p.hist = p.hist<<1 | bit
}

// predictDir returns the predicted direction of a conditional branch and
// which provider made the prediction (-1 = bimodal), and fills d with the
// branch's table indices for updateDir.
func (p *Predictor) predictDir(pc uint64, d *dirIndex) (taken bool, provider int) {
	provider = -1
	h := mix64(pc)
	d.bimodal = int(h & uint64(len(p.bimodal)-1))
	taken = p.bimodal[d.bimodal] >= 2
	for t := range p.tagged {
		tab := &p.tagged[t]
		f := tab.folded
		idx := int((h ^ f ^ uint64(t)*0x9E37) & uint64(len(tab.entries)-1))
		tag := uint16(mix64(pc^f*2654435761) & 0xFF)
		d.idx[t], d.tag[t] = idx, tag
		if tab.entries[idx].tag == tag {
			taken = tab.entries[idx].ctr >= 0
			provider = t
		}
	}
	return taken, provider
}

// updateDir trains the direction predictor with the actual outcome of the
// branch predictDir indexed into d.
func (p *Predictor) updateDir(d *dirIndex, taken, predicted bool, provider int) {
	if provider < 0 {
		bi := d.bimodal
		if taken && p.bimodal[bi] < 3 {
			p.bimodal[bi]++
		} else if !taken && p.bimodal[bi] > 0 {
			p.bimodal[bi]--
		}
	} else {
		e := &p.tagged[provider].entries[d.idx[provider]]
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
		e := &p.tagged[t].entries[d.idx[t]]
		if e.useful == 0 {
			e.tag = d.tag[t]
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
	set, key := p.btb.index(pc)
	btbTarget, btbHit := p.btb.lookup(set, key)
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
		var d dirIndex
		pred, provider := p.predictDir(pc, &d)
		p.updateDir(&d, b.Taken, pred, provider)
		p.push(boolBit(b.Taken))
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
		p.push(1)
	case trace.BranchIndirect:
		idx := int(mix64(pc) & uint64(len(p.ibtb)-1))
		if p.ibtb[idx] != b.Target {
			p.Stats.TargetMispredicts++
			out.Mispredicted = true
		}
		p.ibtb[idx] = b.Target
		p.push(1)
	case trace.BranchUncond:
		if btbHit && btbTarget != b.Target {
			p.Stats.TargetMispredicts++
			out.Mispredicted = true
		}
	}
	if b.Taken {
		p.btb.update(set, key, b.Target)
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

// btbEntry is one BTB way: its tag plus one, so that 0 marks an invalid
// way, and the branch target.
type btbEntry struct {
	key    uint64
	target uint64
}

// btb is a set-associative BTB with true-LRU replacement, kept as each
// set's recency order: its entries sit in one backing array, set s
// occupying entries[s*ways : (s+1)*ways], most recently used first. A set
// fills from the front and never empties a way, so invalid ways only trail
// valid ones and the last way is always the victim.
type btb struct {
	entries []btbEntry
	ways    int
	// setMask is the set count less one and setBits its log2: newBTB
	// requires a power of two, so index masks and shifts.
	setMask uint64
	setBits uint
}

// newBTB builds a BTB of entries/ways sets; it panics unless the set count
// is a power of two of at least 2 (a programming error: every shipped
// config is one). One set would leave a 64-bit tag, whose key could wrap
// to the invalid 0.
func newBTB(entries, ways int) *btb {
	nsets := entries / ways
	if nsets < 2 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("branch: BTB of %d entries in %d ways has %d sets, not a power of two of at least 2", entries, ways, nsets))
	}
	return &btb{
		entries: make([]btbEntry, nsets*ways), ways: ways,
		setMask: uint64(nsets - 1), setBits: uint(bits.TrailingZeros(uint(nsets))),
	}
}

// index returns pc's set, picked by its hash modulo the set count, and its
// key: the tag, the hash divided by the set count, plus one.
func (b *btb) index(pc uint64) ([]btbEntry, uint64) {
	h := mix64(pc)
	s := int(h & b.setMask)
	return b.entries[s*b.ways : (s+1)*b.ways], h>>b.setBits + 1
}

// lookup returns the target of key's entry in set, if any, and makes the
// entry the set's most recently used.
func (b *btb) lookup(set []btbEntry, key uint64) (uint64, bool) {
	if set[0].key == key {
		return set[0].target, true
	}
	for i := 1; i < len(set); i++ {
		if e := set[i]; e.key == key {
			copy(set[1:i+1], set[:i])
			set[0] = e
			return e.target, true
		}
	}
	return 0, false
}

// update records target for key in set. It must follow lookup(set, key),
// which left a hit at the front: an entry found there is retargeted, and
// otherwise the last way is evicted and key fills the front.
func (b *btb) update(set []btbEntry, key, target uint64) {
	if set[0].key != key {
		copy(set[1:], set)
	}
	set[0] = btbEntry{key: key, target: target}
}
