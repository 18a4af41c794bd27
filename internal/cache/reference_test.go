package cache

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// resident reports whether addr's line is in c, without touching the
// recency order.
func resident(c *Cache, addr uint64) bool {
	lineAddr := addr >> c.shift
	set := int(lineAddr & c.setMask)
	return slices.Contains(c.ways[set*c.assoc:(set+1)*c.assoc], lineAddr>>c.setBits+1)
}

// refCache is true LRU written with a clock: every access ticks it, a way
// records the tick of its last use, 0 marking an invalid way, and a miss
// fills an invalid way if there is one and otherwise evicts the way with
// the oldest stamp. Cache, which keeps each set in recency order instead,
// must agree with it access for access.
type refCache struct {
	lines   []refLine
	ways    int
	nsets   uint64
	line    uint64
	clock   uint64
	evicted []uint64

	Accesses, Misses uint64
}

type refLine struct {
	tag     uint64
	lastUse uint64
}

func (l *refLine) valid() bool { return l.lastUse != 0 }

func newRefCache(cfg Config) *refCache {
	ways := cfg.Ways
	if ways == 0 {
		ways = cfg.SizeBytes / cfg.LineBytes
	}
	return &refCache{
		lines: make([]refLine, cfg.Sets()*ways), ways: ways,
		nsets: uint64(cfg.Sets()), line: uint64(cfg.LineBytes),
	}
}

func (c *refCache) Access(addr uint64) bool {
	c.Accesses++
	c.clock++
	lineAddr := addr / c.line
	set, tag := lineAddr%c.nsets, lineAddr/c.nsets
	ways := c.lines[int(set)*c.ways : (int(set)+1)*c.ways]
	for i := range ways {
		if ways[i].valid() && ways[i].tag == tag {
			ways[i].lastUse = c.clock
			return true
		}
	}
	c.Misses++
	victim := 0
	for i := range ways {
		if !ways[i].valid() {
			victim = i
			break
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	if ways[victim].valid() {
		c.evicted = append(c.evicted, (ways[victim].tag*c.nsets+set)*c.line)
	}
	ways[victim] = refLine{tag: tag, lastUse: c.clock}
	return false
}

// referenceGeometries are the geometries the differential tests run:
// direct-mapped, 2 ways of 2 sets, the default L1 (8 ways of 64 sets), and
// fully associative with 8 lines.
func referenceGeometries() map[string]Config {
	return map[string]Config{
		"1way":   {SizeBytes: 4 * 64, LineBytes: 64, Ways: 1},
		"2way":   {SizeBytes: 4 * 64, LineBytes: 64, Ways: 2},
		"8way":   l1i(),
		"fully8": {SizeBytes: 8 * 64, LineBytes: 64, Ways: 0},
	}
}

// checkCacheAgainstReference runs addrs through Cache and refCache under
// cfg and fails at the first access whose hit differs, or if the counters
// or the evicted line addresses differ.
func checkCacheAgainstReference(t *testing.T, name string, cfg Config, addrs []uint64) {
	t.Helper()
	c, ref := New(cfg), newRefCache(cfg)
	var evicted []uint64
	c.OnEvict = func(a uint64) { evicted = append(evicted, a) }
	for i, a := range addrs {
		if got, want := c.Access(a), ref.Access(a); got != want {
			t.Fatalf("%s: access %d of %d (%#x): hit %v, reference %v", name, i, len(addrs), a, got, want)
		}
	}
	if c.Accesses != ref.Accesses || c.Misses != ref.Misses {
		t.Fatalf("%s: %d accesses, %d misses; reference %d, %d", name, c.Accesses, c.Misses, ref.Accesses, ref.Misses)
	}
	if !slices.Equal(evicted, ref.evicted) {
		t.Fatalf("%s: evicted %#x, reference %#x", name, evicted, ref.evicted)
	}
}

// synthAddrs decodes data into an address stream, one byte per access:
// the low three bits pick one of eight sets of the default geometry and the
// rest one of 32 tags, at a byte offset that varies within the line; 255
// is a fresh address anywhere in the 64-bit space. The stream runs twice,
// so that the second pass hits what the first left resident.
func synthAddrs(data []byte) []uint64 {
	var one []uint64
	for i, b := range data {
		line := uint64(b&7) | uint64(b>>3)<<6
		a := line<<6 | uint64(i*13)&63
		if b == 255 {
			a = bits.RotateLeft64(uint64(i+1)*0x9E3779B97F4A7C15, i)
		}
		one = append(one, a)
	}
	return append(one, one...)
}

func FuzzCacheVsReference(f *testing.F) {
	// A loop over eight lines of one set, then over nine.
	f.Add([]byte{0, 8, 16, 24, 32, 40, 48, 56, 0, 8, 16, 24, 32, 40, 48, 56, 64, 0})
	// Alternating sets, a hot line and fresh addresses.
	f.Add([]byte{1, 2, 1, 9, 1, 17, 255, 1, 25, 255, 3, 1})
	// Every byte once.
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	geoms := referenceGeometries()
	f.Fuzz(func(t *testing.T, data []byte) {
		addrs := synthAddrs(data)
		for name, cfg := range geoms {
			checkCacheAgainstReference(t, name, cfg, addrs)
		}
	})
}

// TestCacheMatchesReference runs long random streams, from a few lines to
// many times the capacity, through every reference geometry.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, span := range []int{4, 12, 600, 1 << 14} {
		addrs := make([]uint64, 100000)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(span))*64 + uint64(rng.Intn(64))
		}
		for name, cfg := range referenceGeometries() {
			checkCacheAgainstReference(t, name, cfg, addrs)
		}
	}
}
