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
	// pt is the prepared trace the driver replays; the cache is bound to
	// it and finds residents by its dense key ids.
	pt *trace.PreparedTrace
}

// NewBehavior wraps a cache in a behaviour-mode driver for one prepared
// trace, which must be built under the cache's geometry (see PreparedFor).
// It binds the cache, which must be unused, to pt's key ids. icache may be
// nil (perfect L1i).
func NewBehavior(c *Cache, icache *cache.Cache, pt *trace.PreparedTrace) *Behavior {
	// One call keeps NewBehavior inlinable, so the caller's Behavior
	// need not escape to the heap.
	c.bind(pt, icache)
	return &Behavior{C: c, ICache: icache, pt: pt}
}

// Access performs the lookup at position i of the trace, first landing the
// insertions due by this lookup. On a miss or partial hit it schedules the
// (merged) window's insertion. The set index, storage footprint and key id
// come from the trace's shared columns.
//
//simlint:hotpath
func (b *Behavior) Access(i int) ProbeResult {
	c, pt := b.C, b.pt
	pw, set, id := pt.At(i), pt.Set(i), pt.KeyID(i)
	c.Complete(c.clock + 1) // the lookup clock ticks to this access
	if b.ICache != nil {
		first, last := pw.Lines()
		for l := first; l <= last; l += trace.LineSize {
			b.ICache.Access(l)
		}
	}
	res := c.lookupAt(pw, set, c.slotOf(set, pw.Start, id))
	if res.MissUops > 0 {
		c.scheduleAt(pw, set, pt.Footprint(i), id, c.clock+uint64(c.cfg.InsertDelay))
	}
	return res
}

// Flush completes all pending insertions (end of trace).
func (b *Behavior) Flush() { b.C.Complete(math.MaxUint64) }

// Run drives the whole trace through the simulator and returns the final
// statistics. The caller's policy state is shared with the cache.
//
//simlint:hotpath
func (b *Behavior) Run() Stats {
	for i, n := 0, b.pt.Len(); i < n; i++ {
		b.Access(i)
	}
	b.Flush()
	return b.C.Stats
}
