package backend

import "testing"

// pair is a data side feeding a drain, delivery by delivery, as a timing
// run composes them.
type pair struct {
	*Data
	q Drain
}

func newPair(cfg Config) *pair { return &pair{Data: NewData(cfg), q: NewDrain(cfg)} }

// Supply runs one delivery through the data side and the drain.
func (p *pair) Supply(uops, insts int, addr uint64, cycles int) int {
	return p.q.Supply(uops, cycles, p.Stall(uops, insts, addr))
}

func (p *pair) QueueDepth() int { return p.q.QueueDepth() }
func (p *pair) Flush() int      { return p.q.Flush() }

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.Width != 6 || c.ROB != 256 {
		t.Errorf("config = %+v", c)
	}
	if c.L1D.Validate() != nil || c.L2.Validate() != nil {
		t.Error("cache configs invalid")
	}
}

func TestSupplyRetiresWithinWidth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemFrac = 0 // isolate the drain
	b := newPair(cfg)
	// 12 uops over 2 cycles: width 6 -> all retired, queue empty.
	extra := b.Supply(12, 4, 0x1000, 2)
	if extra != 0 {
		t.Errorf("extra = %d", extra)
	}
	if b.QueueDepth() != 0 {
		t.Errorf("queue = %d", b.QueueDepth())
	}
	// 20 uops in 1 cycle: 6 retired, 14 queued.
	b.Supply(20, 5, 0x1000, 1)
	if b.QueueDepth() != 14 {
		t.Errorf("queue = %d, want 14", b.QueueDepth())
	}
	if b.Stats.RetiredUops != 32 || b.Stats.RetiredInsts != 9 {
		t.Errorf("stats = %+v", b.Stats)
	}
}

func TestROBBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemFrac = 0
	cfg.ROB = 32
	b := newPair(cfg)
	// Vastly oversupply in one cycle.
	extra := b.Supply(200, 50, 0x1000, 1)
	if extra == 0 {
		t.Error("oversupply should cost extra drain cycles")
	}
	if b.QueueDepth() > cfg.ROB {
		t.Errorf("queue %d exceeds ROB %d after backpressure", b.QueueDepth(), cfg.ROB)
	}
}

func TestMemoryStallsAccumulate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemFrac = 1.0
	cfg.Overlap = 1.0
	cfg.DataFootprint = 64 << 20 // big: misses guaranteed early
	b := newPair(cfg)
	extraTotal := 0
	for i := 0; i < 200; i++ {
		extraTotal += b.Supply(6, 2, uint64(i)*4096, 1)
	}
	if b.Stats.L1DAccesses == 0 || b.Stats.L1DMisses == 0 {
		t.Errorf("no data traffic: %+v", b.Stats)
	}
	if extraTotal == 0 {
		t.Error("cold data misses should stall")
	}
	if b.Stats.StallCycles == 0 {
		t.Error("stall cycles not counted")
	}
}

func TestHotDataStopsStalling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemFrac = 1.0
	cfg.DataFootprint = 4 << 10 // tiny working set fits L1d
	b := newPair(cfg)
	var early, late int
	for i := 0; i < 400; i++ {
		e := b.Supply(6, 2, 0x1000, 1) // same addr -> same data set
		if i < 20 {
			early += e
		} else if i >= 380 {
			late += e
		}
	}
	if late > 0 {
		t.Errorf("warm tiny working set still stalling: %d", late)
	}
}

func TestFlush(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemFrac = 0
	b := newPair(cfg)
	b.Supply(25, 5, 0, 1) // retires 6, queue 19
	c := b.Flush()
	if c != 4 { // ceil(19/6)
		t.Errorf("flush cycles = %d, want 4", c)
	}
	if b.QueueDepth() != 0 {
		t.Error("queue not drained")
	}
	if b.Flush() != 0 {
		t.Error("second flush should be free")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		b := newPair(DefaultConfig())
		for i := 0; i < 500; i++ {
			b.Supply(8, 3, uint64(i%37)*512, 2)
		}
		return b.Stats
	}
	if run() != run() {
		t.Error("backend not deterministic")
	}
}
