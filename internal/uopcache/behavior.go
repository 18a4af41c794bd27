package uopcache

import (
	"math"

	"uopsim/internal/cache"
	"uopsim/internal/trace"
)

// Behavior is the trace-driven behaviour-mode simulator (the paper's
// "offline behavior simulator", Fig. 6 STEP 3): it feeds a PW lookup
// sequence through the micro-op cache, scheduling each miss's insertion
// InsertDelay lookups ahead on the cache's lookup clock. All miss-reduction
// numbers in the paper's evaluation are behaviour-mode results.
type Behavior struct {
	C *Cache
	// ICache, when non-nil, models the inclusive L1i: every PW lookup
	// touches its icache line, and L1i evictions invalidate the
	// corresponding micro-op cache windows. Nil models a perfect icache
	// (used by the paper's Fig. 10 ablation).
	ICache *cache.Cache
}

// NewBehavior wraps a cache in a behaviour-mode driver. icache may be nil
// (perfect L1i).
func NewBehavior(c *Cache, icache *cache.Cache) *Behavior {
	if icache != nil {
		c.MakeInclusive(icache)
	}
	return &Behavior{C: c, ICache: icache}
}

// Access performs the lookup at position i of a prepared trace, first
// landing the insertions due by this lookup. On a miss or partial hit it
// schedules the (merged) window's insertion. The set index and storage
// footprint come from the trace's shared columns, so pt must be built under
// the cache's geometry (see PreparedFor).
//
//simlint:hotpath
func (b *Behavior) Access(pt *trace.PreparedTrace, i int) ProbeResult {
	c := b.C
	pw, set := pt.At(i), pt.Set(i)
	c.Complete(c.clock + 1) // the lookup clock ticks to this access
	if b.ICache != nil {
		first, last := pw.Lines()
		for l := first; l <= last; l += trace.LineSize {
			b.ICache.Access(l)
		}
	}
	res := c.lookupAt(pw, set)
	if res.MissUops > 0 {
		c.scheduleAt(pw, set, pt.Footprint(i), c.clock+uint64(c.cfg.InsertDelay))
	}
	return res
}

// Flush completes all pending insertions (end of trace).
func (b *Behavior) Flush() { b.C.Complete(math.MaxUint64) }

// Run drives a whole prepared trace through the simulator and returns the
// final statistics. The caller's policy state is shared with the cache.
//
//simlint:hotpath
func (b *Behavior) Run(pt *trace.PreparedTrace) Stats {
	for i, n := 0, pt.Len(); i < n; i++ {
		b.Access(pt, i)
	}
	b.Flush()
	return b.C.Stats
}
