package uopcache_test

import (
	"testing"

	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

func TestCompactionPacksSmallWindows(t *testing.T) {
	// 4 ways x 8 uops/entry. Without compaction, four 1-uop windows fill
	// the set (1 entry each); with compaction, dozens fit.
	base := uopcache.Config{Entries: 8, Ways: 4, UopsPerEntry: 8, InsertDelay: 0}
	comp := base
	comp.Compaction = true

	fill := func(cfg uopcache.Config) int {
		c := uopcache.New(cfg, policy.NewLRU())
		resident := 0
		for i := 0; i < 64; i++ {
			w := pw(uint64(0x1000+i*16), 1)
			if c.SetIndex(w.Start) != c.SetIndex(0x1000) {
				continue
			}
			if c.Insert(w) == uopcache.Inserted {
				resident++
			}
		}
		return c.Population(c.SetIndex(0x1000))
	}
	if nBase, nComp := fill(base), fill(comp); nComp <= nBase {
		t.Errorf("compaction holds %d windows vs %d without — expected more", nComp, nBase)
	}
}

func TestCompactionCapacityNeverExceeded(t *testing.T) {
	cfg := uopcache.Config{Entries: 16, Ways: 8, UopsPerEntry: 8, InsertDelay: 0, Compaction: true}
	c := uopcache.New(cfg, policy.NewLRU())
	state := uint64(31)
	for i := 0; i < 10000; i++ {
		state = state*6364136223846793005 + 1
		w := pw(uint64(0x1000+(state>>33)%400*16), 1+int((state>>17)%24))
		c.Lookup(w)
		c.Insert(w)
		for s := 0; s < cfg.Sets(); s++ {
			// Under compaction, capacity is uops per set.
			if tot := c.SetUops(s); tot > cfg.Ways*cfg.UopsPerEntry {
				t.Fatalf("set %d holds %d uops > %d", s, tot, cfg.Ways*cfg.UopsPerEntry)
			}
		}
	}
	if u := c.Utilization(); u < 0.99 || u > 1.01 {
		t.Errorf("idealized compaction utilization = %v, want 1", u)
	}
}

func TestCompactionReducesMisses(t *testing.T) {
	// Small windows + capacity pressure: compaction's packing must not
	// increase the miss rate.
	mkTrace := func() []uint64 {
		var out []uint64
		state := uint64(7)
		for i := 0; i < 20000; i++ {
			state = state*6364136223846793005 + 1
			out = append(out, uint64(0x1000+(state>>33)%200*16))
		}
		return out
	}
	run := func(compaction bool) float64 {
		cfg := uopcache.Config{Entries: 64, Ways: 8, UopsPerEntry: 8, InsertDelay: 0, Compaction: compaction}
		c := uopcache.New(cfg, policy.NewLRU())
		var seq []trace.PW
		for _, a := range mkTrace() {
			seq = append(seq, pw(a, 3)) // small windows: heavy fragmentation
		}
		uopcache.NewBehavior(c, nil, uopcache.Prepare(cfg, seq)).Run()
		return c.Stats.UopMissRate()
	}
	base, comp := run(false), run(true)
	if comp > base {
		t.Errorf("compaction raised miss rate: %.4f vs %.4f", comp, base)
	}
}
