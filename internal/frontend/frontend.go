// Package frontend is the cycle-approximate timing model of the x86-style
// decoupled frontend in the paper's Fig. 1. It does not form prediction
// windows: it walks the trace's shared PW sequence (trace.FormPWs, the
// paper's STEP 2 lookup sequence) next to its block stream. Blocks flow
// through the branch predictor, and each window is served at the block
// that emits it, either by the micro-op cache path (up to 8 micro-ops per
// cycle, one PW per cycle) or by the legacy decode path (icache fetch +
// 4-wide decoder with a 5-cycle pipeline), with a 1-cycle penalty on every
// path switch. Micro-op cache insertions land decode-latency cycles after
// their triggering miss, through the cache's in-flight queue on the cycle
// clock (the asynchronous lookup/insertion the paper studies). The frontend
// feeds the backend drain model to produce IPC, and counts every event the
// power model charges for.
package frontend

import (
	"math"

	"uopsim/internal/backend"
	"uopsim/internal/branch"
	"uopsim/internal/cache"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// Config holds the frontend timing parameters (Table I).
type Config struct {
	// DecodeWidth is the legacy decoder's micro-ops per cycle (4-wide).
	DecodeWidth int
	// DecodeLatency is the decode pipeline depth in cycles (5).
	DecodeLatency int
	// UopDeliver is the micro-op cache path bandwidth per cycle (8).
	UopDeliver int
	// SwitchPenalty is the cycle cost of switching between the micro-op
	// cache path and the legacy path (1).
	SwitchPenalty int
	// MispredictPenalty is the resteer cost of a branch misprediction.
	MispredictPenalty int
	// BTBMissPenalty is the decode-time resteer cost of a BTB miss.
	BTBMissPenalty int
	// L1ILatency, L2Latency and DRAMLatency price instruction fetch.
	L1ILatency, L2Latency, DRAMLatency int

	// Perfect-structure switches for the paper's Fig. 2 study.
	PerfectUopCache bool
	PerfectICache   bool
	PerfectBP       bool
	PerfectBTB      bool
	// DisableUopCache removes the micro-op cache entirely (the paper's
	// Fig. 13(a) baseline): every window goes down the legacy decode
	// path and nothing is inserted.
	DisableUopCache bool
	// NonInclusive breaks the L1i-inclusion requirement (the paper's
	// Section VII discussion): L1i evictions no longer invalidate
	// micro-op cache windows, effectively enlarging the instruction
	// storage at the cost of self-modifying-code complexity.
	NonInclusive bool
}

// DefaultConfig returns the paper's Zen3-like frontend timing.
func DefaultConfig() Config {
	return Config{
		DecodeWidth:       4,
		DecodeLatency:     5,
		UopDeliver:        8,
		SwitchPenalty:     1,
		MispredictPenalty: 12,
		BTBMissPenalty:    2,
		L1ILatency:        1,
		L2Latency:         16,
		DRAMLatency:       100,
	}
}

// Events counts everything the power model charges energy for.
type Events struct {
	Cycles              uint64
	DecodedUops         uint64
	DecoderActiveCycles uint64
	ICacheReads         uint64
	ICacheMisses        uint64
	L2InstrReads        uint64
	UopCacheLookups     uint64
	UopCacheHitUops     uint64
	UopCacheWrites      uint64 // entries written on insertion
	BPLookups           uint64
	BTBLookups          uint64
	Switches            uint64
	MispredictFlushes   uint64
}

// Result is a full timing run's output.
type Result struct {
	Events       Events
	Branch       branch.Stats
	UopCache     uopcache.Stats
	Backend      backend.Stats
	Instructions uint64
	Uops         uint64
	Cycles       uint64
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// PublishMetrics copies the run's frontend-level aggregates into reg as
// frontend_* metrics (the uopcache_* family is maintained live by the cache
// itself when attached).
func (r Result) PublishMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("frontend_cycles_total").Store(r.Cycles)
	reg.Counter("frontend_instructions_total").Store(r.Instructions)
	reg.Counter("frontend_uops_total").Store(r.Uops)
	reg.Counter("frontend_decoded_uops_total").Store(r.Events.DecodedUops)
	reg.Counter("frontend_decoder_active_cycles_total").Store(r.Events.DecoderActiveCycles)
	reg.Counter("frontend_icache_reads_total").Store(r.Events.ICacheReads)
	reg.Counter("frontend_icache_misses_total").Store(r.Events.ICacheMisses)
	reg.Counter("frontend_l2_instr_reads_total").Store(r.Events.L2InstrReads)
	reg.Counter("frontend_uopcache_lookups_total").Store(r.Events.UopCacheLookups)
	reg.Counter("frontend_uopcache_hit_uops_total").Store(r.Events.UopCacheHitUops)
	reg.Counter("frontend_uopcache_writes_total").Store(r.Events.UopCacheWrites)
	reg.Counter("frontend_bp_lookups_total").Store(r.Events.BPLookups)
	reg.Counter("frontend_btb_lookups_total").Store(r.Events.BTBLookups)
	reg.Counter("frontend_path_switches_total").Store(r.Events.Switches)
	reg.Counter("frontend_mispredict_flushes_total").Store(r.Events.MispredictFlushes)
	reg.Gauge("frontend_ipc").Set(r.IPC())
	reg.Gauge("frontend_uop_miss_rate").Set(r.UopCache.UopMissRate())
}

// Frontend is the timing simulator. Construct with New and drive with Run.
type Frontend struct {
	cfg Config
	bp  *branch.Predictor
	uc  *uopcache.Cache
	l1i *cache.Cache
	be  *backend.Backend

	inUopPath bool
	cycle     uint64
	events    Events

	// carried misprediction/BTB penalties to charge to the next window.
	pendingPenalty int
}

// New builds a frontend wired to its prediction, cache and backend
// substrate. l1i may be nil only when cfg.PerfectICache is set.
func New(cfg Config, bp *branch.Predictor, uc *uopcache.Cache, l1i *cache.Cache, be *backend.Backend) *Frontend {
	if l1i != nil && !cfg.NonInclusive {
		uc.MakeInclusive(l1i)
	}
	return &Frontend{cfg: cfg, bp: bp, uc: uc, l1i: l1i, be: be}
}

// Run drives the whole dynamic block stream and its PW sequence, which
// must be trace.FormPWs(blocks, 0) — Run panics if it is not — and returns
// the result.
func (f *Frontend) Run(blocks []trace.Block, pws []trace.PW) Result {
	written := f.uc.Stats.EntriesWritten
	f.walk(blocks, pws)
	f.uc.Complete(math.MaxUint64)
	// Every entry the cache wrote during the run came from this
	// frontend's insertions.
	f.events.UopCacheWrites += f.uc.Stats.EntriesWritten - written
	f.cycle += uint64(f.be.Flush())

	var res Result
	res.Events = f.events
	res.Events.Cycles = f.cycle
	res.Branch = f.bp.Stats
	res.UopCache = f.uc.Stats
	res.Instructions = f.bp.Stats.Instructions
	res.Uops = f.events.UopCacheHitUops + f.events.DecodedUops
	res.Cycles = f.cycle
	// The backend stats live inside the backend; copy them out.
	res.Backend = f.backendStats()
	return res
}

func (f *Frontend) backendStats() backend.Stats { return f.be.StatsCopy() }

// walk steps every block through prediction and serves each window at the
// block that emits it, so a block's misprediction or BTB-miss penalty lands
// on the first window emitted after it.
//
//simlint:hotpath
func (f *Frontend) walk(blocks []trace.Block, pws []trace.PW) {
	w := windowWalk{blocks: blocks, pws: pws}
	k, at := 0, w.emission(0)
	for i := range blocks {
		b := &blocks[i]
		f.events.BPLookups++
		if b.Kind.IsBranch() {
			f.events.BTBLookups++
		}
		out := f.bp.Process(*b)
		for ; at == i; k++ {
			f.servePW(pws[k])
			at = w.emission(k + 1)
		}
		if out.Mispredicted && !f.cfg.PerfectBP {
			f.pendingPenalty += f.cfg.MispredictPenalty
			f.events.MispredictFlushes++
		} else if out.BTBMiss && !f.cfg.PerfectBTB {
			f.pendingPenalty += f.cfg.BTBMissPenalty
		}
	}
	for ; at == len(blocks); k++ {
		f.servePW(pws[k])
		at = w.emission(k + 1)
	}
}

// servePW delivers one prediction window to the micro-op queue, charging
// cycles for the path it took.
//
//simlint:hotpath
func (f *Frontend) servePW(p trace.PW) {
	f.uc.Complete(f.cycle)
	cycles := f.pendingPenalty
	f.pendingPenalty = 0

	var pr uopcache.ProbeResult
	switch {
	case f.cfg.DisableUopCache:
		pr = uopcache.ProbeResult{Kind: uopcache.ProbeMiss, MissUops: int(p.NumUops)}
	default:
		f.events.UopCacheLookups++
		pr = f.probeUopCache(p)
	}

	hitUops, missUops := pr.HitUops, pr.MissUops
	if hitUops > 0 {
		if !f.inUopPath {
			cycles += f.cfg.SwitchPenalty
			f.events.Switches++
			f.inUopPath = true
		}
		// One PW per cycle, up to UopDeliver micro-ops each.
		c := (hitUops + f.cfg.UopDeliver - 1) / f.cfg.UopDeliver
		if c < 1 {
			c = 1
		}
		cycles += c
		f.events.UopCacheHitUops += uint64(hitUops)
	}
	if missUops > 0 {
		if f.inUopPath || hitUops > 0 {
			cycles += f.cfg.SwitchPenalty
			f.events.Switches++
			f.inUopPath = false
		}
		// Instruction fetch for the window's lines.
		fetch := 0
		for _, line := range p.Lines {
			f.events.ICacheReads++
			switch {
			case f.cfg.PerfectICache || f.l1i == nil:
				fetch += f.cfg.L1ILatency
			case f.l1i.Access(line):
				fetch += f.cfg.L1ILatency
			default:
				f.events.ICacheMisses++
				f.events.L2InstrReads++
				fetch += f.cfg.L2Latency
			}
		}
		// Decode pipe: fill latency only when entering the legacy
		// path cold, then width-limited decode.
		decode := (missUops + f.cfg.DecodeWidth - 1) / f.cfg.DecodeWidth
		cycles += fetch + f.cfg.DecodeLatency + decode
		f.events.DecodedUops += uint64(missUops)
		f.events.DecoderActiveCycles += uint64(decode)

		if !f.cfg.PerfectUopCache && !f.cfg.DisableUopCache {
			f.uc.Schedule(p, f.cycle+uint64(f.cfg.DecodeLatency))
		}
	}
	if cycles < 1 {
		cycles = 1
	}
	f.cycle += uint64(cycles)
	extra := f.be.Supply(int(p.NumUops), int(p.NumInst), p.Start, cycles)
	f.cycle += uint64(extra)
}

// probeUopCache performs the lookup, honouring the perfect switch.
func (f *Frontend) probeUopCache(p trace.PW) uopcache.ProbeResult {
	if f.cfg.PerfectUopCache {
		// Keep the stats (and attached telemetry) meaningful under the
		// perfect switch.
		f.uc.NotePerfectHit(p)
		return uopcache.ProbeResult{Kind: uopcache.ProbeFull, HitUops: int(p.NumUops)}
	}
	return f.uc.Lookup(p)
}
