// Package power is the McPAT/CACTI-style energy model: per-event energies
// for every frontend and backend structure, derived from a small CACTI-like
// analytic model of array access energy, calibrated so the per-core
// breakdown of the no-uop-cache baseline matches the paper's Fig. 13
// (decoder ≈12.5%, icache ≈7.7% of per-core power). Performance-per-watt is
// retired instructions per joule; the paper reports relative gains, which is
// what the experiment harness computes.
package power

import (
	"math"

	"uopsim/internal/frontend"
)

// CACTILike estimates the dynamic read energy (picojoules) of an SRAM array
// from its capacity and associativity: energy grows with the square root of
// capacity (bitline/wordline lengths) and mildly with associativity (ways
// read in parallel). The constants are fitted to typical published 22nm
// CACTI numbers (a 32KiB 8-way L1 read ≈ 20pJ, a 512KiB L2 read ≈ 75pJ).
// The associativity term is rounded before the add (explicit float64), so
// no target fuses it into a multiply-add.
func CACTILike(sizeBytes, assoc int) float64 {
	if sizeBytes <= 0 {
		return 0
	}
	if assoc <= 0 {
		assoc = 1
	}
	return 2.6 * math.Sqrt(float64(sizeBytes)/1024) * (1 + float64(0.13*float64(assoc)))
}

// EnergyTable holds per-event energies in picojoules and static power in
// picojoules per cycle.
type EnergyTable struct {
	// DecodePerUop is the legacy-decode energy per micro-op produced —
	// the dominant frontend cost on variable-length ISAs.
	DecodePerUop float64
	// ICacheRead is per L1i line read on the legacy path.
	ICacheRead float64
	// L2Read is per L2 access (instruction or data).
	L2Read float64
	// UopLookup is per micro-op cache lookup (set activation + way
	// compare).
	UopLookup float64
	// UopWritePerEntry is per micro-op cache entry written on insertion.
	UopWritePerEntry float64
	// BTBLookup and BPLookup are per prediction.
	BTBLookup, BPLookup float64
	// L1DRead is per data-cache access.
	L1DRead float64
	// BackendPerUop covers rename/issue/execute/retire per micro-op.
	BackendPerUop float64
	// StaticPerCycle is leakage+clock for the whole core per cycle.
	StaticPerCycle float64
	// DRAMAccess prices a memory access (refund beyond core power, kept
	// small; the paper evaluates per-core power).
	DRAMAccess float64
}

// DefaultTable derives the energy table for the paper's 22nm / 3.2GHz /
// Zen3-like configuration from the CACTI-like model plus decoder and
// backend constants calibrated against the Fig. 13 breakdown.
func DefaultTable() EnergyTable {
	return EnergyTable{
		DecodePerUop:     16.0,                         // deep x86 decode pipeline
		ICacheRead:       CACTILike(32<<10, 8),         // ~20 pJ
		L2Read:           CACTILike(512<<10, 8),        // ~75 pJ
		UopLookup:        CACTILike(512*72/8, 8) * 0.9, // small array, tag+data
		UopWritePerEntry: CACTILike(512*72/8, 8) * 1.1,
		BTBLookup:        CACTILike(8192*8, 4),
		BPLookup:         CACTILike(64<<10, 1) * 0.35,
		L1DRead:          CACTILike(32<<10, 8),
		BackendPerUop:    34.0,
		StaticPerCycle:   32.0,
		DRAMAccess:       0, // per-core scope
	}
}

// Breakdown reports per-structure energy in picojoules.
type Breakdown struct {
	Decoder  float64
	ICache   float64
	UopCache float64
	BTB      float64
	BP       float64
	L2       float64
	L1D      float64
	Backend  float64
	Static   float64
}

// Total sums the breakdown.
func (b Breakdown) Total() float64 {
	return b.Decoder + b.ICache + b.UopCache + b.BTB + b.BP + b.L2 + b.L1D + b.Backend + b.Static
}

// FrontendShare returns the fraction of energy in decoder+icache+uopcache.
func (b Breakdown) FrontendShare() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return (b.Decoder + b.ICache + b.UopCache) / t
}

// Compute charges the energy table against a timing run's event counts.
// Each product is rounded before it is summed (the explicit float64
// conversions), so no target may fuse a sum into a multiply-add.
func Compute(res frontend.Result, tbl EnergyTable) Breakdown {
	e := res.Events
	return Breakdown{
		Decoder:  float64(e.DecodedUops) * tbl.DecodePerUop,
		ICache:   float64(e.ICacheReads) * tbl.ICacheRead,
		UopCache: float64(float64(e.UopCacheLookups)*tbl.UopLookup) + float64(float64(e.UopCacheWrites)*tbl.UopWritePerEntry),
		BTB:      float64(e.BTBLookups) * tbl.BTBLookup,
		BP:       float64(e.BPLookups) * tbl.BPLookup,
		L2:       float64(float64(e.L2InstrReads)*tbl.L2Read) + float64(float64(res.Backend.L2Accesses)*tbl.L2Read),
		L1D:      float64(res.Backend.L1DAccesses) * tbl.L1DRead,
		Backend:  float64(res.Backend.RetiredUops) * tbl.BackendPerUop,
		Static:   float64(e.Cycles) * tbl.StaticPerCycle,
	}
}

// PPW returns performance-per-watt: retired instructions per joule.
// (Instructions per picojoule × 1e12; only ratios matter downstream.)
func PPW(res frontend.Result, b Breakdown) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(res.Instructions) / t * 1e12
}
