// Package workload generates synthetic instruction traces that stand in for
// the 11 data-center applications of the paper's Table II (Cassandra, Kafka,
// Tomcat, Drupal, Mediawiki, Wordpress, Postgres, MySQL, Python, Finagle,
// Clang). The paper collected Intel PT traces from the real applications; we
// do not have them, so each application is modelled as a parameterized
// synthetic program whose dynamic behaviour reproduces the trace properties
// the replacement-policy study depends on:
//
//   - a large code footprint relative to the micro-op cache (the paper finds
//     >99% of misses are capacity/conflict misses);
//   - a skewed, Zipf-like PW popularity distribution with hot, warm and cold
//     regions (Fig. 22 of the paper);
//   - scattered reuse distances (>20% of PWs with stack distance > 30);
//   - program phases that make some globally-cold code transiently hot
//     (exercising FURBYS's local miss-pitfall detector);
//   - sometimes-taken conditional branches that create overlapping PWs with
//     a common start address (exercising partial hits);
//   - variable micro-op density per instruction (exercising variable PW
//     cost, 1–8 micro-ops per entry).
//
// Generation is fully deterministic: the static program is derived from the
// application's seed alone, while the dynamic walk additionally depends on
// the input variant, so different inputs execute the same code — exactly the
// setup the paper's cross-validation experiment (Fig. 18) requires.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"uopsim/internal/trace"
)

// Spec describes one synthetic application.
type Spec struct {
	// Name identifies the application (lower-case, as in Table II).
	Name string
	// Description mirrors the paper's Table II description column.
	Description string
	// TargetMPKI is the branch misprediction rate per kilo-instruction
	// the paper reports for the application (Table II); the generator's
	// FlakyFrac is derived from it.
	TargetMPKI float64

	// Funcs is the number of functions in the static program.
	Funcs int
	// MinBlocks and MaxBlocks bound the basic blocks per function.
	MinBlocks, MaxBlocks int
	// ZipfS is the skew of the function-popularity distribution
	// (larger = more skewed toward a small hot set).
	ZipfS float64
	// Phases is the number of distinct program phases; each phase
	// promotes a different set of cold functions to transiently hot.
	Phases int
	// PhaseLen is the number of top-level function invocations per phase.
	PhaseLen int
	// PromotePerPhase is how many cold functions each phase makes hot.
	PromotePerPhase int
	// LoopMean is the mean iteration count of function-internal loops.
	LoopMean float64
	// LoopFrac is the fraction of functions containing a loop.
	LoopFrac float64
	// FlakyFrac is the fraction of conditional branches with
	// near-random outcomes (drives the branch MPKI and, because flaky
	// branches are sometimes taken and sometimes not, the overlapping-PW
	// rate).
	FlakyFrac float64
	// UopHeavyFrac is the fraction of blocks decoding to ~3 micro-ops
	// per instruction (microcoded patterns); the rest average 1–1.5.
	UopHeavyFrac float64
	// CallFrac is the probability a block calls a shared utility
	// function.
	CallFrac float64
	// Burstiness is the probability the next top-level invocation
	// repeats the previous function (temporal locality bursts).
	Burstiness float64
	// Seed fixes the static program layout.
	Seed int64
}

// StaticPWEstimate returns a rough count of distinct static prediction
// windows the program contains, for footprint reporting.
func (s Spec) StaticPWEstimate() int {
	avgBlocks := float64(s.MinBlocks+s.MaxBlocks) / 2
	return int(float64(s.Funcs) * avgBlocks * 1.3)
}

// flakyFromMPKI derives the flaky-branch fraction from a Table II MPKI
// target: with roughly 100 conditional branches per kilo-instruction and a
// ~45% misprediction rate on a flaky branch, MPKI ≈ 45 × FlakyFrac.
func flakyFromMPKI(mpki float64) float64 {
	f := mpki / 45.0
	if f > 0.9 {
		f = 0.9
	}
	return f
}

// Catalog returns the 11 application models of Table II, in the paper's
// order. Parameters encode each application's qualitative character: the
// Java services have mid-size footprints; the PHP stacks (OSS-performance)
// have large flat footprints; the databases have smaller, highly skewed
// footprints with few mispredictions; the interpreters and RPC framework
// are branchy; Clang has the largest footprint.
func Catalog() []Spec {
	specs := []Spec{
		{Name: "cassandra", Description: "From the Java DaCapo benchmark suite", TargetMPKI: 1.78,
			Funcs: 500, MinBlocks: 8, MaxBlocks: 24, ZipfS: 1.10, Phases: 5, PromotePerPhase: 12,
			LoopMean: 8, LoopFrac: 0.35, UopHeavyFrac: 0.15, CallFrac: 0.10, Burstiness: 0.35, Seed: 1001},
		{Name: "kafka", Description: "From the Java DaCapo benchmark suite", TargetMPKI: 1.77,
			Funcs: 450, MinBlocks: 8, MaxBlocks: 22, ZipfS: 1.05, Phases: 6, PromotePerPhase: 14,
			LoopMean: 6, LoopFrac: 0.30, UopHeavyFrac: 0.18, CallFrac: 0.12, Burstiness: 0.30, Seed: 1002},
		{Name: "tomcat", Description: "From the Java DaCapo benchmark suite", TargetMPKI: 4.45,
			Funcs: 600, MinBlocks: 6, MaxBlocks: 20, ZipfS: 0.92, Phases: 6, PromotePerPhase: 16,
			LoopMean: 5, LoopFrac: 0.25, UopHeavyFrac: 0.12, CallFrac: 0.14, Burstiness: 0.25, Seed: 1003},
		{Name: "drupal", Description: "From Facebook's OSS performance benchmark suite", TargetMPKI: 1.89,
			Funcs: 700, MinBlocks: 6, MaxBlocks: 18, ZipfS: 0.95, Phases: 5, PromotePerPhase: 18,
			LoopMean: 4, LoopFrac: 0.22, UopHeavyFrac: 0.20, CallFrac: 0.15, Burstiness: 0.22, Seed: 1004},
		{Name: "mediawiki", Description: "From Facebook's OSS performance benchmark suite", TargetMPKI: 2.35,
			Funcs: 650, MinBlocks: 6, MaxBlocks: 18, ZipfS: 0.95, Phases: 5, PromotePerPhase: 16,
			LoopMean: 4, LoopFrac: 0.22, UopHeavyFrac: 0.20, CallFrac: 0.15, Burstiness: 0.22, Seed: 1005},
		{Name: "wordpress", Description: "From Facebook's OSS performance benchmark suite", TargetMPKI: 5.64,
			Funcs: 750, MinBlocks: 6, MaxBlocks: 16, ZipfS: 0.90, Phases: 6, PromotePerPhase: 20,
			LoopMean: 3, LoopFrac: 0.20, UopHeavyFrac: 0.22, CallFrac: 0.16, Burstiness: 0.20, Seed: 1006},
		{Name: "postgres", Description: "Collected when used to serve pgbench queries", TargetMPKI: 0.41,
			Funcs: 300, MinBlocks: 10, MaxBlocks: 28, ZipfS: 1.25, Phases: 4, PromotePerPhase: 8,
			LoopMean: 12, LoopFrac: 0.45, UopHeavyFrac: 0.10, CallFrac: 0.08, Burstiness: 0.45, Seed: 1007},
		{Name: "mysql", Description: "Collected while serving TPC-C queries", TargetMPKI: 0.66,
			Funcs: 480, MinBlocks: 10, MaxBlocks: 26, ZipfS: 1.08, Phases: 4, PromotePerPhase: 12,
			LoopMean: 7, LoopFrac: 0.35, UopHeavyFrac: 0.12, CallFrac: 0.09, Burstiness: 0.30, Seed: 1008},
		{Name: "python", Description: "Collected while running the pyperformance benchmark suite", TargetMPKI: 4.73,
			Funcs: 400, MinBlocks: 8, MaxBlocks: 22, ZipfS: 1.05, Phases: 7, PromotePerPhase: 12,
			LoopMean: 9, LoopFrac: 0.50, UopHeavyFrac: 0.14, CallFrac: 0.12, Burstiness: 0.50, Seed: 1009},
		{Name: "finagle", Description: "Twitter's microblogging service", TargetMPKI: 4.76,
			Funcs: 550, MinBlocks: 6, MaxBlocks: 20, ZipfS: 0.98, Phases: 6, PromotePerPhase: 14,
			LoopMean: 5, LoopFrac: 0.28, UopHeavyFrac: 0.16, CallFrac: 0.13, Burstiness: 0.28, Seed: 1010},
		{Name: "clang", Description: "Collected while building LLVM", TargetMPKI: 1.86,
			Funcs: 800, MinBlocks: 6, MaxBlocks: 18, ZipfS: 0.88, Phases: 5, PromotePerPhase: 20,
			LoopMean: 6, LoopFrac: 0.30, UopHeavyFrac: 0.14, CallFrac: 0.15, Burstiness: 0.25, Seed: 1011},
	}
	for i := range specs {
		specs[i].FlakyFrac = flakyFromMPKI(specs[i].TargetMPKI)
		if specs[i].PhaseLen == 0 {
			specs[i].PhaseLen = 4000
		}
	}
	return specs
}

// Get returns the catalog spec with the given name.
func Get(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown application %q", name)
}

// Names returns the application names in catalog order.
func Names() []string {
	cat := Catalog()
	out := make([]string, len(cat))
	for i, s := range cat {
		out[i] = s.Name
	}
	return out
}

// ---------------------------------------------------------------------------
// Static program construction.

type bblock struct {
	addr  uint64
	bytes uint16
	ninst uint16
	nuops uint16
	// kind is the terminating control-flow instruction.
	kind trace.BranchKind
	// takenProb applies to conditional branches.
	takenProb float64
	// flaky marks near-random conditionals.
	flaky bool
	// target is the taken target address (0 for rets, whose target is
	// the return address).
	target uint64
	// callee is the called function index for call blocks, else -1.
	callee int
	// loopBack marks the conditional at a loop's backedge.
	loopBack bool
}

func (b bblock) branchPC() uint64 {
	if b.kind == trace.BranchNone {
		return 0
	}
	// The branch is the last instruction of the block; approximate its
	// address as the block end minus an average instruction.
	per := int(b.bytes) / int(b.ninst)
	return b.addr + uint64(int(b.bytes)-per)
}

type function struct {
	blocks []bblock
	// loopHead/loopEnd are block indices of the internal loop, -1 if none.
	loopHead, loopEnd int
	loopMean          float64
}

// Program is a fully built static program plus its base popularity order.
type Program struct {
	Spec  Spec
	funcs []function
	// rank[i] is the i-th most popular function's index.
	rank []int
	// utilFuncs are shared callees (subset of funcs, called from many
	// callers — shared hot code).
	utilFuncs []int
}

// Build constructs the static program for the spec. The result depends only
// on Spec (notably Seed), never on the input variant.
func (s Spec) Build() *Program {
	rng := rand.New(rand.NewSource(s.Seed))
	p := &Program{Spec: s, funcs: make([]function, 0, s.Funcs)}
	addr := uint64(0x400000)
	nUtil := s.Funcs / 20
	if nUtil < 4 {
		nUtil = 4
	}
	for fi := 0; fi < s.Funcs; fi++ {
		nb := s.MinBlocks + rng.Intn(s.MaxBlocks-s.MinBlocks+1)
		fn := function{loopHead: -1, loopEnd: -1, blocks: make([]bblock, 0, nb)}
		hasLoop := rng.Float64() < s.LoopFrac && nb >= 4
		var loopHead, loopEnd int
		if hasLoop {
			loopHead = 1 + rng.Intn(nb/2)
			loopEnd = loopHead + 1 + rng.Intn(nb-loopHead-2)
			fn.loopHead, fn.loopEnd = loopHead, loopEnd
			fn.loopMean = s.LoopMean * (0.5 + rng.Float64())
		}
		for bi := 0; bi < nb; bi++ {
			ninst := uint16(2 + rng.Intn(10))
			per := 3 + rng.Intn(4) // 3-6 bytes per instruction
			bytes := ninst * uint16(per)
			density := 1.0 + 0.5*rng.Float64()
			if rng.Float64() < s.UopHeavyFrac {
				density = 2.0 + rng.Float64()
			}
			nuops := uint16(math.Max(1, math.Round(float64(ninst)*density)))
			b := bblock{bytes: bytes, ninst: ninst, nuops: nuops, callee: -1}
			last := bi == nb-1
			switch {
			case last:
				b.kind = trace.BranchRet
			case hasLoop && bi == loopEnd:
				b.kind = trace.BranchCond
				b.loopBack = true
			case rng.Float64() < s.CallFrac && nUtil > 0:
				b.kind = trace.BranchCall
				b.callee = s.Funcs - 1 - rng.Intn(nUtil) // utility funcs at the end
			default:
				r := rng.Float64()
				switch {
				case r < 0.55:
					b.kind = trace.BranchCond
					if rng.Float64() < s.FlakyFrac {
						b.flaky = true
						b.takenProb = 0.35 + 0.3*rng.Float64()
					} else if rng.Float64() < 0.5 {
						b.takenProb = 0.05 // strongly not-taken
					} else {
						b.takenProb = 0.92 // strongly taken
					}
				case r < 0.70:
					b.kind = trace.BranchUncond
				default:
					b.kind = trace.BranchNone // falls through
				}
			}
			fn.blocks = append(fn.blocks, b)
		}
		// Lay out the blocks contiguously and resolve targets.
		for bi := range fn.blocks {
			fn.blocks[bi].addr = addr
			addr += uint64(fn.blocks[bi].bytes)
		}
		for bi := range fn.blocks {
			b := &fn.blocks[bi]
			switch {
			case b.loopBack:
				b.target = fn.blocks[loopHead].addr
				// The loop-continue probability is set per
				// dynamic execution; takenProb is unused here.
			case b.kind == trace.BranchCond:
				// Conditional taken target skips the next block.
				tgt := bi + 2
				if tgt >= len(fn.blocks) {
					tgt = len(fn.blocks) - 1
				}
				b.target = fn.blocks[tgt].addr
			case b.kind == trace.BranchUncond:
				tgt := bi + 1
				if tgt >= len(fn.blocks) {
					tgt = len(fn.blocks) - 1
				}
				b.target = fn.blocks[tgt].addr
			}
		}
		p.funcs = append(p.funcs, fn)
		addr += 64 // gap between functions, keeps line sharing rare
	}
	p.utilFuncs = make([]int, 0, nUtil)
	for i := 0; i < nUtil; i++ {
		p.utilFuncs = append(p.utilFuncs, s.Funcs-1-i)
	}
	// Base popularity ranking: a fixed random permutation (drawn from the
	// static seed so it is shared across input variants).
	p.rank = rng.Perm(s.Funcs)
	return p
}

// NumFuncs returns the number of functions in the program.
func (p *Program) NumFuncs() int { return len(p.funcs) }

// ---------------------------------------------------------------------------
// Dynamic trace generation.

// zipfWeights returns normalized Zipf(s) weights for n ranks, plus the
// cumulative distribution for sampling.
func zipfWeights(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// sampleCDF draws an index from a cumulative distribution.
func sampleCDF(cdf []float64, r float64) int {
	i := sort.SearchFloat64s(cdf, r)
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// Generate produces a dynamic block trace of at least numBlocks blocks for
// the given input variant. It runs whole top-level invocations and stops at
// the first invocation boundary at or past numBlocks, so the overshoot is
// up to one invocation, which can be far larger than numBlocks: kafka
// yields 15,694 blocks for 5,000 and 83,032 for 80,000. Variant 0 is the
// paper's "default input"; other variants model different request
// mixes/seeds for cross-validation.
func (p *Program) Generate(numBlocks, input int) []trace.Block {
	s := p.Spec
	rng := rand.New(rand.NewSource(s.Seed*1_000_003 + int64(input)*7919 + 17))

	// Input variants perturb the popularity ranking slightly: a few
	// adjacent ranks swap, so the hot set is stable but not identical.
	// The perturbation is deliberately mild — different inputs to the
	// same binary shift request mixes, not the program's hot code — and
	// that stability is exactly what the paper's cross-validation
	// experiment (Fig. 18) relies on.
	rank := make([]int, len(p.rank))
	copy(rank, p.rank)
	for i := 0; i+1 < len(rank); i++ {
		if rng.Float64() < 0.04 {
			rank[i], rank[i+1] = rank[i+1], rank[i]
		}
	}
	cdf := zipfWeights(len(rank), s.ZipfS*(0.99+0.02*rng.Float64()))

	// Phase schedule: each phase promotes a handful of cold functions to
	// the front of the ranking. The promoted sets are chosen from the
	// static seed (so profiles can in principle see them) but their order
	// across the run depends on the input.
	staticRng := rand.New(rand.NewSource(s.Seed + 42))
	promoted := make([][]int, s.Phases)
	for ph := 0; ph < s.Phases; ph++ {
		set := make([]int, 0, s.PromotePerPhase)
		for len(set) < s.PromotePerPhase {
			// Pick from the cold half of the ranking.
			f := rank[len(rank)/2+staticRng.Intn(len(rank)/2)]
			set = append(set, f)
		}
		promoted[ph] = set
	}
	phaseOrder := rng.Perm(s.Phases)

	out := make([]trace.Block, 0, numBlocks+64)
	g := &walker{p: p, rng: rng, out: &out}

	invocation := 0
	lastFunc := -1
	for len(out) < numBlocks {
		ph := phaseOrder[(invocation/s.PhaseLen)%s.Phases]
		invocation++
		var f int
		switch {
		case lastFunc >= 0 && rng.Float64() < s.Burstiness:
			f = lastFunc
		case rng.Float64() < 0.30:
			// In-phase: draw from the promoted (locally hot) set.
			f = promoted[ph][rng.Intn(len(promoted[ph]))]
		default:
			f = rank[sampleCDF(cdf, rng.Float64())]
		}
		lastFunc = f
		// Patch the previous invocation's top-level ret to target this
		// function's entry, keeping the branch-target stream coherent.
		g.fixupLastRet(p.funcs[f].blocks[0].addr)
		g.execute(f, 0)
	}
	return out
}

// GenerateSpec is a convenience wrapper building the program and generating
// a trace in one call.
func GenerateSpec(s Spec, numBlocks, input int) []trace.Block {
	return s.Build().Generate(numBlocks, input)
}

// walker interprets the static program, emitting dynamic blocks.
type walker struct {
	p   *Program
	rng *rand.Rand
	out *[]trace.Block
}

const maxCallDepth = 3

func (w *walker) execute(fi, depth int) {
	fn := &w.p.funcs[fi]
	loopsLeft := 0
	if fn.loopHead >= 0 {
		// Geometric-ish loop count around the per-function mean.
		loopsLeft = 1 + w.rng.Intn(int(2*fn.loopMean)+1)
	}
	bi := 0
	steps := 0
	maxSteps := len(fn.blocks) * (loopsLeft + 4)
	for bi < len(fn.blocks) && steps < maxSteps {
		steps++
		b := fn.blocks[bi]
		dyn := trace.Block{
			Addr: b.addr, Bytes: b.bytes, NumInst: b.ninst, NumUops: b.nuops,
			Kind: b.kind, BranchPC: b.branchPC(),
		}
		switch b.kind {
		case trace.BranchNone:
			*w.out = append(*w.out, dyn)
			bi++
		case trace.BranchCond:
			var taken bool
			if b.loopBack {
				taken = loopsLeft > 0
				if loopsLeft > 0 {
					loopsLeft--
				}
			} else {
				taken = w.rng.Float64() < b.takenProb
			}
			dyn.Taken = taken
			if taken {
				dyn.Target = b.target
			}
			*w.out = append(*w.out, dyn)
			if taken {
				if b.loopBack {
					bi = fn.loopHead
				} else {
					bi = w.blockIndexAt(fn, b.target, bi)
				}
			} else {
				bi++
			}
		case trace.BranchUncond:
			dyn.Taken = true
			dyn.Target = b.target
			*w.out = append(*w.out, dyn)
			bi = w.blockIndexAt(fn, b.target, bi)
		case trace.BranchCall:
			if depth >= maxCallDepth {
				// Too deep: degrade the call to a jump over it so
				// control flow stays consistent.
				dyn.Kind = trace.BranchUncond
				dyn.Taken = true
				if bi+1 < len(fn.blocks) {
					dyn.Target = fn.blocks[bi+1].addr
				} else {
					dyn.Target = b.addr + uint64(b.bytes)
				}
				*w.out = append(*w.out, dyn)
				bi++
				break
			}
			callee := b.callee
			dyn.Taken = true
			dyn.Target = w.p.funcs[callee].blocks[0].addr
			*w.out = append(*w.out, dyn)
			w.execute(callee, depth+1)
			// Model the return by continuing at the next block: patch
			// the callee's final ret so it targets the return address.
			if bi+1 < len(fn.blocks) {
				w.fixupLastRet(fn.blocks[bi+1].addr)
			}
			bi++
		case trace.BranchRet:
			dyn.Taken = true
			// Target is patched by the caller via fixupLastRet; for
			// top-level invocations it stays 0 and the frontend
			// treats it as an arbitrary resteer.
			*w.out = append(*w.out, dyn)
			return
		default:
			*w.out = append(*w.out, dyn)
			bi++
		}
	}
}

// blockIndexAt finds the index of the block at addr within fn; falls back to
// advancing sequentially when the target is not a block head (defensive —
// construction always targets block heads).
func (w *walker) blockIndexAt(fn *function, addr uint64, cur int) int {
	for i := range fn.blocks {
		if fn.blocks[i].addr == addr {
			return i
		}
	}
	return cur + 1
}

// fixupLastRet patches the most recent ret block's target (the return
// address) so branch-target streams are well formed for the BTB/RAS model.
func (w *walker) fixupLastRet(retAddr uint64) {
	out := *w.out
	for i := len(out) - 1; i >= 0 && i >= len(out)-64; i-- {
		if out[i].Kind == trace.BranchRet && out[i].Target == 0 {
			out[i].Target = retAddr
			return
		}
	}
}
