// Package backend models a simplified out-of-order core backend in two
// halves: a lightweight data memory model (Data: L1d/L2/DRAM) that turns
// each frontend delivery into deterministic stall cycles, and a 6-wide
// retire drain (Drain) fed by the frontend's micro-op queue. The
// paper's evaluation needs the backend only to translate frontend delivery
// rates into IPC (its Section VII notes backend detail is out of scope), so
// the model is an accounting drain, not a scheduled pipeline.
package backend

import (
	"fmt"

	"uopsim/internal/cache"
)

// Config sizes the backend; DefaultConfig matches the paper's Table I.
type Config struct {
	// Width is the retire width (6-wide out-of-order).
	Width int
	// ROB bounds the micro-op queue the frontend may run ahead by
	// (256-entry reorder buffer).
	ROB int
	// MemFrac is the fraction of micro-ops that access data memory.
	MemFrac float64
	// Overlap discounts memory stall cycles for memory-level
	// parallelism (0 = perfectly hidden, 1 = fully serialized).
	Overlap float64
	// DataFootprint is the synthetic data working set in bytes, a power
	// of two.
	DataFootprint uint64
	// L1D and L2 size the data-side hierarchy.
	L1D cache.Config
	L2  cache.Config
	// L2Latency and DRAMLatency are miss penalties in cycles.
	L2Latency, DRAMLatency int
}

// DefaultConfig returns the paper's backend configuration.
func DefaultConfig() Config {
	return Config{
		Width:         6,
		ROB:           256,
		MemFrac:       0.3,
		Overlap:       0.25,
		DataFootprint: 8 << 20,
		L1D:           cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 2},
		L2:            cache.Config{SizeBytes: 512 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 16},
		L2Latency:     16,
		DRAMLatency:   100,
	}
}

// Stats counts backend activity.
type Stats struct {
	RetiredUops  uint64
	RetiredInsts uint64
	StallCycles  uint64
	L1DAccesses  uint64
	L1DMisses    uint64
	L2Accesses   uint64
	L2Misses     uint64
}

// Data is the backend's data side: a deterministic fraction of each
// delivery's micro-ops are memory operations that run through the L1d/L2
// hierarchy and add stall cycles. It is keyed by each delivery's code
// address and micro-op count, not by the cycle, so a trace's stall stream
// is the same under every frontend configuration.
type Data struct {
	cfg Config
	l1d *cache.Cache
	l2  *cache.Cache
	// footMask is DataFootprint-1: NewData requires a power of two, so a
	// data address is its hash masked rather than a remainder.
	footMask uint64
	// l2Stall and dramStall are the stall cycles of an L1d miss that hits
	// and misses the L2, each latency times Overlap.
	l2Stall, dramStall float64
	// stallCarry accumulates fractional stall cycles.
	stallCarry float64
	Stats      Stats
}

// NewData builds a backend data side; it panics unless DataFootprint is a
// power of two (a programming error: the shipped 8 MiB is one).
func NewData(cfg Config) *Data {
	if fp := cfg.DataFootprint; fp == 0 || fp&(fp-1) != 0 {
		panic(fmt.Sprintf("backend: DataFootprint %d is not a power of two", fp))
	}
	return &Data{
		cfg: cfg, l1d: cache.New(cfg.L1D), l2: cache.New(cfg.L2),
		footMask:  cfg.DataFootprint - 1,
		l2Stall:   float64(cfg.L2Latency) * cfg.Overlap,
		dramStall: float64(cfg.DRAMLatency) * cfg.Overlap,
	}
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// Stall retires one frontend delivery of `uops` micro-ops (decoding `insts`
// instructions, fetched from around code address `addr`) through the data
// side and returns the whole stall cycles it adds; the fractional rest
// carries over to the next delivery.
func (d *Data) Stall(uops, insts int, addr uint64) int {
	d.Stats.RetiredUops += uint64(uops)
	d.Stats.RetiredInsts += uint64(insts)

	// A deterministic fraction of micro-ops are memory operations touching
	// a synthetic working set derived from the code address (hot code
	// tends to touch hot data).
	memOps := int(float64(float64(uops)*d.cfg.MemFrac) + 0.5)
	stall := 0.0
	for i := 0; i < memOps; i++ {
		da := mix64(addr+uint64(i)*0x9E3779B9) & d.footMask
		d.Stats.L1DAccesses++
		if d.l1d.Access(da) {
			continue
		}
		d.Stats.L1DMisses++
		d.Stats.L2Accesses++
		if d.l2.Access(da) {
			stall += d.l2Stall
		} else {
			d.Stats.L2Misses++
			stall += d.dramStall
		}
	}
	d.stallCarry += stall
	if d.stallCarry < 1 {
		return 0
	}
	whole := int(d.stallCarry)
	d.stallCarry -= float64(whole)
	d.Stats.StallCycles += uint64(whole)
	return whole
}

// Drain is the backend's retire queue: the frontend supplies micro-ops
// together with the cycles it took to produce them and the data side's
// stall cycles for them, and the drain charges the cycles the queue adds.
type Drain struct {
	cfg   Config
	queue int
}

// NewDrain builds an empty retire queue.
func NewDrain(cfg Config) Drain { return Drain{cfg: cfg} }

// Supply hands the queue `uops` micro-ops that the frontend produced over
// `cycles` cycles and that stall the data side for `stall` whole cycles
// (Data.Stall). It returns the number of ADDITIONAL cycles the backend
// needs beyond the frontend's (queue-overflow drain plus the stall).
func (b *Drain) Supply(uops, cycles, stall int) int {
	b.queue += uops

	// Retire what the width allows during the frontend cycles.
	retire := b.cfg.Width * cycles
	if retire > b.queue {
		retire = b.queue
	}
	b.queue -= retire

	extra := 0
	// If the queue exceeds the ROB, the frontend would have been
	// back-pressured; charge the cycles needed to drain back under it.
	if b.queue > b.cfg.ROB {
		over := b.queue - b.cfg.ROB
		drain := (over + b.cfg.Width - 1) / b.cfg.Width
		b.queue -= drain * b.cfg.Width
		if b.queue < 0 {
			b.queue = 0
		}
		extra += drain
	}

	// Stall cycles also retire from the queue.
	if stall > 0 {
		r := b.cfg.Width * stall
		if r > b.queue {
			r = b.queue
		}
		b.queue -= r
		extra += stall
	}
	return extra
}

// Flush drains the remaining queue, returning the cycles needed.
func (b *Drain) Flush() int {
	c := (b.queue + b.cfg.Width - 1) / b.cfg.Width
	b.queue = 0
	return c
}

// QueueDepth returns the current micro-op queue occupancy.
func (b *Drain) QueueDepth() int { return b.queue }
