package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func l1i() Config { return Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 1} }

func TestConfigSets(t *testing.T) {
	if got := l1i().Sets(); got != 64 {
		t.Errorf("32KiB/64B/8w sets = %d, want 64", got)
	}
	fa := Config{SizeBytes: 4096, LineBytes: 64, Ways: 0}
	if got := fa.Sets(); got != 1 {
		t.Errorf("fully associative sets = %d, want 1", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{l1i(), {SizeBytes: 512 << 10, LineBytes: 64, Ways: 8}, {SizeBytes: 4096, LineBytes: 64, Ways: 0}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 8},
		{SizeBytes: 1024, LineBytes: 60, Ways: 4},
		{SizeBytes: 8, LineBytes: 1, Ways: 0}, // a tag plus one could wrap
		{SizeBytes: 1024, LineBytes: 64, Ways: 5},
		{SizeBytes: 64 * 12, LineBytes: 64, Ways: 4}, // 3 sets, not power of two
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with bad config should panic")
		}
	}()
	New(Config{SizeBytes: -1, LineBytes: 64, Ways: 1})
}

func TestAccessHitMiss(t *testing.T) {
	c := New(l1i())
	if c.Access(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	if !c.Access(0x1004) {
		t.Error("same line should hit")
	}
	if c.Access(0x1040) {
		t.Error("next line should miss")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Errorf("stats = %d/%d, want 4/2", c.Accesses, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 2-set tiny cache: 4 lines of 64B = 256B.
	c := New(Config{SizeBytes: 256, LineBytes: 64, Ways: 2})
	// Set 0 gets addresses with line index even.
	a, b, d := uint64(0x0000), uint64(0x0080), uint64(0x0100) // all set 0
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is MRU
	c.Access(d) // evicts b (LRU)
	if !resident(c, a) {
		t.Error("a should survive")
	}
	if resident(c, b) {
		t.Error("b should be evicted")
	}
	if !resident(c, d) {
		t.Error("d should be resident")
	}
}

func TestOnEvictFires(t *testing.T) {
	c := New(Config{SizeBytes: 128, LineBytes: 64, Ways: 1})
	var evicted []uint64
	c.OnEvict = func(a uint64) { evicted = append(evicted, a) }
	c.Access(0x0000)
	c.Access(0x0080) // same set (2 sets: 0x00 set0, 0x40 set1, 0x80 set0) -> evicts 0x0000
	if len(evicted) != 1 || evicted[0] != 0x0000 {
		t.Errorf("evicted = %#v, want [0x0]", evicted)
	}
}

// TestReassembleRoundTrip: the evicted address is the line address, for
// any address, including tags in the top bits.
func TestReassembleRoundTrip(t *testing.T) {
	c := New(l1i())
	f := func(addr uint64) bool {
		lineAddr := addr >> c.shift
		return c.reassemble(lineAddr&c.setMask, lineAddr>>c.setBits) == addr&^63
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestInclusionProperty: working-set smaller than capacity never misses after
// the first pass, regardless of access order (true LRU, single set).
func TestLRUWorkingSetProperty(t *testing.T) {
	c := New(Config{SizeBytes: 8 * 64, LineBytes: 64, Ways: 0}) // fully assoc, 8 lines
	addrs := []uint64{0, 64, 128, 192, 256, 320, 384, 448}
	for _, a := range addrs {
		c.Access(a)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a := addrs[rng.Intn(len(addrs))]
		if !c.Access(a) {
			t.Fatalf("miss on resident working set at %#x", a)
		}
	}
}

// TestFullyAssocMatchesStackDistance: in a fully-associative LRU cache of W
// lines, an access hits iff its LRU stack distance is < W.
func TestFullyAssocMatchesStackDistance(t *testing.T) {
	const w = 4
	c := New(Config{SizeBytes: w * 64, LineBytes: 64, Ways: 0})
	rng := rand.New(rand.NewSource(9))
	var hist []uint64
	for i := 0; i < 5000; i++ {
		a := uint64(rng.Intn(12)) * 64
		// Compute stack distance over hist.
		seen := map[uint64]bool{}
		dist := -1
		for j := len(hist) - 1; j >= 0; j-- {
			if hist[j] == a {
				dist = len(seen)
				break
			}
			seen[hist[j]] = true
		}
		wantHit := dist >= 0 && dist < w
		if got := c.Access(a); got != wantHit {
			t.Fatalf("access %d addr %#x: hit=%v, stack distance %d wants %v", i, a, got, dist, wantHit)
		}
		hist = append(hist, a)
	}
}

func TestResetStats(t *testing.T) {
	c := New(l1i())
	c.Access(0x1000)
	c.ResetStats()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Error("stats not reset")
	}
	if !resident(c, 0x1000) {
		t.Error("contents should survive ResetStats")
	}
}
