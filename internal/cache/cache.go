// Package cache implements the conventional set-associative caches of the
// memory hierarchy (L1i, L1d, L2) used by the timing simulator, plus the
// shadow caches the statistics module uses for miss classification. The
// micro-op cache is NOT here — its PW-granular, multi-entry semantics live in
// package uopcache.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes a conventional cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the line size.
	LineBytes int
	// Ways is the associativity; 0 means fully associative.
	Ways int
	// LatencyCycles is the hit latency, used by the timing model.
	LatencyCycles int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	ways := c.Ways
	lines := c.SizeBytes / c.LineBytes
	if ways == 0 {
		return 1
	}
	return lines / ways
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive size/line (%d/%d)", c.SizeBytes, c.LineBytes)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if c.Ways < 0 || (c.Ways > 0 && lines%c.Ways != 0) {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	if c.Ways > 0 {
		sets := lines / c.Ways
		if sets&(sets-1) != 0 {
			return fmt.Errorf("cache: set count %d not a power of two", sets)
		}
	}
	return nil
}

type line struct {
	tag uint64
	// lastUse is a monotonically increasing stamp for LRU; the clock ticks
	// before every fill, so 0 marks an invalid line.
	lastUse uint64
}

func (l *line) valid() bool { return l.lastUse != 0 }

// Cache is a set-associative cache with true-LRU replacement. Its lines sit
// in one backing array, set s occupying lines[s*ways : (s+1)*ways].
type Cache struct {
	cfg     Config
	lines   []line
	ways    int
	setMask uint64
	setBits uint
	shift   uint
	clock   uint64

	// OnEvict, when non-nil, is invoked with the line address of every
	// evicted (or invalidated) line. The micro-op cache registers here to
	// implement L1i inclusion.
	OnEvict func(lineAddr uint64)

	// Stats.
	Accesses uint64
	Misses   uint64
}

// New builds a cache; it panics on invalid configuration (a programming
// error, configurations are static).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	ways := cfg.Ways
	if ways == 0 {
		ways = cfg.SizeBytes / cfg.LineBytes
	}
	return &Cache{
		cfg:     cfg,
		lines:   make([]line, nsets*ways),
		ways:    ways,
		setMask: uint64(nsets - 1),
		setBits: uint(bits.TrailingZeros(uint(nsets))),
		shift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr >> c.shift
	return int(lineAddr & c.setMask), lineAddr >> c.setBits
}

// set returns set s's ways.
func (c *Cache) set(s int) []line {
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// LineAddr returns the address of the line containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

// Access touches addr, filling on miss. It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	c.clock++
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		// The tag first: it rules out almost every way on its own.
		if ways[i].tag == tag && ways[i].valid() {
			ways[i].lastUse = c.clock
			return true
		}
	}
	c.Misses++
	// Fill: pick an invalid way, else the LRU way.
	victim := 0
	for i := range ways {
		if !ways[i].valid() {
			victim = i
			goto fill
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	if ways[victim].valid() && c.OnEvict != nil {
		c.OnEvict(c.reassemble(set, ways[victim].tag))
	}
fill:
	ways[victim] = line{tag: tag, lastUse: c.clock}
	return false
}

// Probe reports whether addr is resident without updating state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, w := range c.set(set) {
		if w.valid() && w.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if resident, firing OnEvict.
func (c *Cache) Invalidate(addr uint64) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid() && ways[i].tag == tag {
			ways[i].lastUse = 0
			if c.OnEvict != nil {
				c.OnEvict(c.reassemble(set, tag))
			}
			return true
		}
	}
	return false
}

// reassemble reconstructs a line address from set and tag.
func (c *Cache) reassemble(set int, tag uint64) uint64 {
	return ((tag << c.setBits) | uint64(set)) << c.shift
}

// MissRate returns misses/accesses (0 when untouched).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// ResetStats clears the counters without disturbing contents (for warmup).
func (c *Cache) ResetStats() { c.Accesses, c.Misses = 0, 0 }
