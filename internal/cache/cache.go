// Package cache implements the conventional set-associative caches of the
// memory hierarchy (the L1i, the L1d and the L2) with true-LRU
// replacement, kept as each set's recency order: a hit moves its way to
// the front of the set and a miss evicts the last way. The micro-op cache
// is NOT here — its PW-granular, multi-entry semantics live in package
// uopcache.
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
	if c.LineBytes < 2 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two of at least 2", c.LineBytes)
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

// Cache is a set-associative cache with true-LRU replacement. LRU's whole
// per-set state is the recency order of the set's lines, so that is all a
// set stores: its ways sit in one backing array, set s occupying
// ways[s*assoc : (s+1)*assoc], most recently used first. A way holds its
// line's tag plus one, so 0 marks an invalid way; a set fills from the
// front and never empties a way, so invalid ways only trail valid ones and
// the last way is always the victim.
type Cache struct {
	ways    []uint64
	assoc   int
	setMask uint64
	setBits uint
	shift   uint

	// OnEvict, when non-nil, is invoked with the line address of every
	// evicted line. The micro-op cache registers here to implement L1i
	// inclusion.
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
	assoc := cfg.Ways
	if assoc == 0 {
		assoc = cfg.SizeBytes / cfg.LineBytes
	}
	return &Cache{
		ways:    make([]uint64, nsets*assoc),
		assoc:   assoc,
		setMask: uint64(nsets - 1),
		setBits: uint(bits.TrailingZeros(uint(nsets))),
		shift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}
}

// Access touches addr, filling on miss. It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	lineAddr := addr >> c.shift
	set := lineAddr & c.setMask
	// A line of at least two bytes leaves the tag under 2^63, so the key
	// cannot wrap to the invalid 0.
	key := lineAddr>>c.setBits + 1
	ways := c.ways[int(set)*c.assoc : (int(set)+1)*c.assoc]
	if ways[0] == key {
		return true
	}
	for i := 1; i < len(ways); i++ {
		if ways[i] == key {
			copy(ways[1:i+1], ways[:i])
			ways[0] = key
			return true
		}
	}
	c.Misses++
	if victim := ways[len(ways)-1]; victim != 0 && c.OnEvict != nil {
		c.OnEvict(c.reassemble(set, victim-1))
	}
	copy(ways[1:], ways)
	ways[0] = key
	return false
}

// reassemble reconstructs a line address from set and tag.
func (c *Cache) reassemble(set, tag uint64) uint64 {
	return ((tag << c.setBits) | set) << c.shift
}

// ResetStats clears the counters without disturbing contents (for warmup).
func (c *Cache) ResetStats() { c.Accesses, c.Misses = 0, 0 }
