// Package frontend is the cycle-approximate timing model of the x86-style
// decoupled frontend in the paper's Fig. 1. A timing run has two halves.
// The policy-independent half is a Path, built once per trace (and
// predictor and backend configuration) and shared by every run over it:
// NewPath walks the trace's shared PW sequence (trace.FormPWs, the paper's
// STEP 2 lookup sequence) next to its block stream without forming
// anything, placing each window at the block that emits it; it runs the
// blocks through the branch predictor, which runs ahead of fetch, and
// records each block's misprediction and BTB-miss flags; and it runs each
// window through the backend's data side (backend.Data) and records its
// stall cycles. The policy-dependent half is a Frontend's Run over the
// path: each window is served at its block, either by the micro-op cache
// path (up to 8 micro-ops per cycle, one PW per cycle) or by the legacy
// decode path (icache fetch + 4-wide decoder with a 5-cycle pipeline), with
// a 1-cycle penalty on every path switch, and a block's resteer penalty
// lands on the next window unless a perfect-structure switch removes it.
// Micro-op cache insertions land decode-latency cycles after their
// triggering miss, through the cache's in-flight queue on the cycle clock
// (the asynchronous lookup/insertion the paper studies). Each window then
// feeds the backend's retire queue (backend.Drain) with its stall cycles to
// produce IPC, and the run counts every event the power model charges for.
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

// Frontend is the timing simulator: the policy-dependent half of a timing
// run. Construct with New and drive with Run over a Path.
type Frontend struct {
	cfg Config
	uc  *uopcache.Cache
	l1i *cache.Cache
	be  backend.Drain

	inUopPath bool
	cycle     uint64
	events    Events

	// carried misprediction/BTB penalties to charge to the next window.
	pendingPenalty int
}

// New builds a frontend wired to its micro-op cache and L1i. l1i may be nil
// only when cfg.PerfectICache is set.
func New(cfg Config, uc *uopcache.Cache, l1i *cache.Cache) *Frontend {
	if l1i != nil && !cfg.NonInclusive {
		uc.MakeInclusive(l1i)
	}
	return &Frontend{cfg: cfg, uc: uc, l1i: l1i}
}

// Run walks p, serving each of its windows through the micro-op cache and
// L1i and draining the backend's retire queue, and returns the result. The
// branch and data-side statistics are p's.
func (f *Frontend) Run(p *Path) Result {
	f.be = backend.NewDrain(p.becfg)
	written := f.uc.Stats.EntriesWritten
	f.walk(p)
	f.uc.Complete(math.MaxUint64)
	// Every entry the cache wrote during the run came from this
	// frontend's insertions.
	f.events.UopCacheWrites += f.uc.Stats.EntriesWritten - written
	f.cycle += uint64(f.be.Flush())

	var res Result
	res.Events = f.events
	res.Events.Cycles = f.cycle
	res.Events.BPLookups = uint64(len(p.steps))
	res.Events.BTBLookups = p.btbLookups
	res.Branch = p.branchStats
	res.UopCache = f.uc.Stats
	res.Backend = p.backendStats
	res.Instructions = p.branchStats.Instructions
	res.Uops = f.events.UopCacheHitUops + f.events.DecodedUops
	res.Cycles = f.cycle
	return res
}

// walk serves each window at the block that emits it, so a block's
// misprediction or BTB-miss penalty lands on the first window emitted after
// it.
//
//simlint:hotpath
func (f *Frontend) walk(p *Path) {
	k := 0
	for _, s := range p.steps {
		for end := k + int(s>>stepShift); k < end; k++ {
			f.servePW(p.pws[k], int(p.stalls[k]))
		}
		if s&stepMispredict != 0 && !f.cfg.PerfectBP {
			f.pendingPenalty += f.cfg.MispredictPenalty
			f.events.MispredictFlushes++
		} else if s&stepBTBMiss != 0 && !f.cfg.PerfectBTB {
			f.pendingPenalty += f.cfg.BTBMissPenalty
		}
	}
	for ; k < len(p.pws); k++ {
		f.servePW(p.pws[k], int(p.stalls[k]))
	}
}

// servePW delivers one prediction window to the micro-op queue, charging
// cycles for the path it took and for the backend, whose data side stalls
// the window for stall cycles.
//
//simlint:hotpath
func (f *Frontend) servePW(p trace.PW, stall int) {
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
	extra := f.be.Supply(int(p.NumUops), cycles, stall)
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
