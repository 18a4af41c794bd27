package branch

import (
	"math/rand"
	"testing"

	"uopsim/internal/trace"
	"uopsim/internal/workload"
)

// foldHistory is the definition of a tagged table's folded history: the
// low histLen bits of the global history (all 64 from histLen 64 on),
// XOR-folded outBits at a time. Predictor keeps it incrementally (push).
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

// refPredictor is the predictor written from the definitions, one formula
// per use: it folds the history and hashes every tagged table's index and
// tag afresh on each predict and each update, and keeps the BTB's true LRU
// with a clock (refBTB) indexed by remainder and quotient, the definition
// of the masked index. Predictor must agree with it block for block.
type refPredictor struct {
	cfg     Config
	bimodal []uint8
	tagged  []refTable
	hist    uint64
	btb     refBTB
	ras     []uint64
	rasTop  int
	ibtb    []uint64
	Stats   Stats
}

type refTable struct {
	entries []taggedEntry
	histLen int
}

func newRef(cfg Config) *refPredictor {
	p := &refPredictor{cfg: cfg, bimodal: make([]uint8, 1<<cfg.BimodalBits)}
	for i := range p.bimodal {
		p.bimodal[i] = 1
	}
	for _, hl := range cfg.HistLens {
		if hl == 0 {
			break
		}
		p.tagged = append(p.tagged, refTable{entries: make([]taggedEntry, 1<<cfg.TaggedBits), histLen: hl})
	}
	nsets := cfg.BTBEntries / cfg.BTBWays
	p.btb = refBTB{entries: make([]refBTBEntry, nsets*cfg.BTBWays), ways: cfg.BTBWays, nsets: uint64(nsets)}
	p.ras = make([]uint64, cfg.RASEntries)
	p.ibtb = make([]uint64, cfg.IBTBEntries)
	return p
}

func (p *refPredictor) taggedIndex(t int, pc uint64) (int, uint16) {
	tab := &p.tagged[t]
	h := foldHistory(p.hist, tab.histLen, p.cfg.TaggedBits)
	idx := int((mix64(pc) ^ h ^ uint64(t)*0x9E37) & uint64(len(tab.entries)-1))
	tag := uint16(mix64(pc^h*2654435761) & 0xFF)
	return idx, tag
}

func (p *refPredictor) predictDir(pc uint64) (taken bool, provider int) {
	provider = -1
	taken = p.bimodal[mix64(pc)&uint64(len(p.bimodal)-1)] >= 2
	for t := range p.tagged {
		idx, tag := p.taggedIndex(t, pc)
		if p.tagged[t].entries[idx].tag == tag {
			taken = p.tagged[t].entries[idx].ctr >= 0
			provider = t
		}
	}
	return taken, provider
}

func (p *refPredictor) updateDir(pc uint64, taken, predicted bool, provider int) {
	if provider < 0 {
		bi := mix64(pc) & uint64(len(p.bimodal)-1)
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
	if predicted != taken && provider < len(p.tagged)-1 {
		t := provider + 1
		idx, tag := p.taggedIndex(t, pc)
		e := &p.tagged[t].entries[idx]
		if e.useful == 0 {
			e.tag = tag
			e.ctr = -1
			if taken {
				e.ctr = 0
			}
		} else {
			e.useful--
		}
	}
}

func (p *refPredictor) Process(b trace.Block) Outcome {
	p.Stats.Instructions += uint64(b.NumInst)
	if !b.Kind.IsBranch() {
		return Outcome{}
	}
	p.Stats.Branches++
	var out Outcome
	pc := b.BranchPC
	btbTarget, btbHit := p.btb.lookup(pc)
	if !btbHit {
		p.Stats.BTBMisses++
		out.BTBMiss = true
	}
	switch b.Kind {
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
		var target uint64
		if p.rasTop > 0 {
			p.rasTop--
			target = p.ras[p.rasTop%len(p.ras)]
		}
		if target != b.Target && b.Target != 0 {
			p.Stats.TargetMispredicts++
			out.Mispredicted = true
		}
	case trace.BranchCall:
		p.ras[p.rasTop%len(p.ras)] = b.FallThrough()
		p.rasTop++
		p.hist = p.hist<<1 | 1
	case trace.BranchIndirect:
		idx := mix64(pc) & uint64(len(p.ibtb)-1)
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

// refBTB is the BTB's true LRU written with a clock: lookup and update each
// tick it, an entry records the tick of its last use, 0 marking an invalid
// entry, and update fills an invalid entry if there is one and otherwise
// replaces the entry with the oldest stamp. btb keeps each set in recency
// order instead.
type refBTB struct {
	entries []refBTBEntry
	ways    int
	nsets   uint64
	clock   uint64
}

type refBTBEntry struct {
	tag     uint64
	target  uint64
	lastUse uint64
}

func (e *refBTBEntry) valid() bool { return e.lastUse != 0 }

func (b *refBTB) index(pc uint64) (int, uint64) {
	h := mix64(pc)
	return int(h % b.nsets), h / b.nsets
}

func (b *refBTB) lookup(pc uint64) (uint64, bool) {
	b.clock++
	set, tag := b.index(pc)
	ways := b.entries[set*b.ways : (set+1)*b.ways]
	for i := range ways {
		if ways[i].valid() && ways[i].tag == tag {
			ways[i].lastUse = b.clock
			return ways[i].target, true
		}
	}
	return 0, false
}

func (b *refBTB) update(pc, target uint64) {
	b.clock++
	set, tag := b.index(pc)
	ways := b.entries[set*b.ways : (set+1)*b.ways]
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
	ways[victim] = refBTBEntry{tag: tag, target: target, lastUse: b.clock}
}

// referenceConfigs are the configurations the differential tests run:
// both shipped ones, and a small one with 8 BTB sets, a fold width that
// divides no history length, and a history of exactly 64.
func referenceConfigs() map[string]Config {
	return map[string]Config{
		"default": DefaultConfig(),
		"zen4":    Zen4Config(),
		"small": {BTBEntries: 16, BTBWays: 2, RASEntries: 4, IBTBEntries: 16,
			BimodalBits: 6, TaggedBits: 5, HistLens: [MaxTaggedTables]int{3, 13, 64, 200}},
	}
}

// TestBTBSetCountPowerOfTwo checks that New rejects a BTB whose set count
// is not a power of two, which its masked index cannot address, or is a
// single set, whose 64-bit tag plus one could wrap to the invalid key.
func TestBTBSetCountPowerOfTwo(t *testing.T) {
	for _, c := range [][2]int{{6000, 4}, {12, 2}, {2, 4}, {4, 4}} {
		cfg := DefaultConfig()
		cfg.BTBEntries, cfg.BTBWays = c[0], c[1]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted a BTB of %d entries in %d ways", c[0], c[1])
				}
			}()
			New(cfg)
		}()
	}
}

// checkAgainstReference runs blocks through Predictor and refPredictor
// under cfg and fails at the first block whose Outcome differs, or if the
// final Stats differ.
func checkAgainstReference(t *testing.T, name string, cfg Config, blocks []trace.Block) {
	t.Helper()
	p, ref := New(cfg), newRef(cfg)
	for i, b := range blocks {
		if got, want := p.Process(b), ref.Process(b); got != want {
			t.Fatalf("%s: block %d of %d (%+v): outcome %+v, reference %+v", name, i, len(blocks), b, got, want)
		}
	}
	if p.Stats != ref.Stats {
		t.Fatalf("%s: stats %+v, reference %+v", name, p.Stats, ref.Stats)
	}
}

// synthBranches decodes data into a block stream, three bytes per block:
// the kind and a conditional's direction; the branch PC, one of 255 sites
// or (at 255) a fresh address; and the target, one of 16 (0 at 0, so that
// returns sometimes carry none). The stream repeats eight times so that
// sites recur under longer histories. Past 64 blocks the data is ignored:
// the fuzzer's rate and its minimisation both fall steeply with longer
// inputs.
func synthBranches(data []byte) []trace.Block {
	data = data[:min(len(data), 3*64)]
	kinds := [...]trace.BranchKind{trace.BranchNone, trace.BranchCond, trace.BranchUncond,
		trace.BranchCall, trace.BranchRet, trace.BranchIndirect}
	var one []trace.Block
	for i := 0; len(data) >= 3; i, data = i+1, data[3:] {
		pc := 0x40_0000 + uint64(data[1])*0x1c4
		if data[1] == 255 {
			pc = mix64(uint64(i)) &^ 3
		}
		kind := kinds[int(data[0])%len(kinds)]
		b := trace.Block{Addr: pc - 8, Bytes: 12, NumInst: 3, NumUops: 4, Kind: kind}
		if kind.IsBranch() {
			b.BranchPC = pc
			b.Taken = kind != trace.BranchCond || data[0]&0x40 != 0
			if data[2] != 0 {
				b.Target = 0x10_0000 + uint64(data[2]%16)*0x40
			}
		}
		one = append(one, b)
	}
	var blocks []trace.Block
	for range 8 {
		blocks = append(blocks, one...)
	}
	return blocks
}

func FuzzPredictorVsReference(f *testing.F) {
	// One site of every kind, twice.
	f.Add([]byte{0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 0x41, 1, 1, 0x41, 2, 2})
	// A conditional alternating direction at one site, between calls.
	f.Add([]byte{1, 9, 3, 0x41, 9, 3, 3, 10, 4, 1, 9, 3, 0x41, 9, 3, 4, 11, 0})
	// A hot conditional site, taken once, then not taken (a BTB lookup
	// without an update) between 31 taken cold sites: in the small
	// configuration some cold sites share its set, and only a lookup hit
	// moved to the front of the set keeps it resident.
	hot := []byte{0x43, 9, 1}
	for c := range 31 {
		hot = append(hot, 1, 9, 1, 2, byte(20+c), 1)
	}
	f.Add(hot)
	// Fresh addresses and many sites: BTB capacity and conflicts.
	seed := make([]byte, 0, 3*64)
	for i := range 64 {
		seed = append(seed, byte(i*7), byte(i*13), byte(i*29))
	}
	f.Add(seed)
	cfgs := referenceConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks := synthBranches(data)
		for name, cfg := range cfgs {
			checkAgainstReference(t, name, cfg, blocks)
		}
	})
}

// TestPredictorMatchesReferenceOnWorkloads runs every application's
// generated trace through both predictors under every reference config.
func TestPredictorMatchesReferenceOnWorkloads(t *testing.T) {
	for _, app := range workload.Names() {
		spec, err := workload.Get(app)
		if err != nil {
			t.Fatal(err)
		}
		blocks := workload.GenerateSpec(spec, 20000, 0)
		for name, cfg := range referenceConfigs() {
			checkAgainstReference(t, app+"/"+name, cfg, blocks)
		}
	}
}

// TestIncrementalFold checks every tagged table's folded history against
// foldHistory after each push, from an empty history on, for both shipped
// fold widths.
func TestIncrementalFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{DefaultConfig().TaggedBits, Zen4Config().TaggedBits} {
		cfg := DefaultConfig()
		cfg.TaggedBits = width
		cfg.HistLens = [MaxTaggedTables]int{8, 32, 128, 256}
		p := New(cfg)
		for i := range 1000 {
			p.push(uint64(rng.Intn(2)))
			for ti, tab := range p.tagged {
				hl := cfg.HistLens[ti]
				if want := foldHistory(p.hist, hl, width); tab.folded != want {
					t.Fatalf("width %d, history %d, push %d: folded %#x, want %#x", width, hl, i, tab.folded, want)
				}
			}
		}
	}
}
