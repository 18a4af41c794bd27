package uopcache

import (
	"uopsim/internal/cache"
	"uopsim/internal/trace"
)

// Behavior is the trace-driven behaviour-mode simulator (the paper's
// "offline behavior simulator", Fig. 6 STEP 3): it feeds a PW lookup
// sequence through the micro-op cache, modelling asynchronous insertion as a
// fixed delay measured in subsequent lookups. All miss-reduction numbers in
// the paper's evaluation are behaviour-mode results.
type Behavior struct {
	C *Cache
	// ICache, when non-nil, models the inclusive L1i: every PW lookup
	// touches its icache line, and L1i evictions invalidate the
	// corresponding micro-op cache windows. Nil models a perfect icache
	// (used by the paper's Fig. 10 ablation).
	ICache *cache.Cache

	delay    uint64
	lookups  uint64
	inflight map[uint64]*pending
	queue    []*pending
}

type pending struct {
	pw  trace.PW
	due uint64
	// set and foot are the window's set index and storage footprint,
	// read from the prepared trace at scheduling.
	set  int
	foot int
	// cancelled marks in-flight windows whose insertion an offline
	// policy decided to skip (FLACK's late-insertion safeguard).
	cancelled bool
}

// NewBehavior wraps a cache in a behaviour-mode driver. icache may be nil
// (perfect L1i).
func NewBehavior(c *Cache, icache *cache.Cache) *Behavior {
	b := &Behavior{
		C:        c,
		ICache:   icache,
		delay:    uint64(c.cfg.InsertDelay),
		inflight: make(map[uint64]*pending),
	}
	if icache != nil {
		icache.OnEvict = func(lineAddr uint64) { c.InvalidateLine(lineAddr) }
	}
	return b
}

// Access performs the lookup at position i of a prepared trace, draining
// any insertions that became due. On a miss or partial hit it schedules the
// (merged) window's insertion, coalescing with an already in-flight window
// for the same start address. The set index and storage footprint come from
// the trace's shared columns, so pt must be built under the cache's
// geometry (see PreparedFor).
//
//simlint:hotpath
func (b *Behavior) Access(pt *trace.PreparedTrace, i int) ProbeResult {
	pw, set := pt.At(i), pt.Set(i)
	b.lookups++
	b.drain()
	if b.ICache != nil {
		for _, line := range pw.Lines {
			b.ICache.Access(line)
		}
	}
	res := b.C.lookupAt(pw, set)
	if res.MissUops > 0 {
		b.schedule(pw, set, pt.Footprint(i))
	}
	return res
}

// InFlight reports whether an insertion for start is pending.
func (b *Behavior) InFlight(start uint64) bool {
	p, ok := b.inflight[start]
	return ok && !p.cancelled
}

// CancelInFlight drops a pending insertion (FLACK's asynchrony handling:
// when the offline policy decides a window that is still in the decode pipe
// should not be cached, the insertion is bypassed on arrival).
func (b *Behavior) CancelInFlight(start uint64) bool {
	p, ok := b.inflight[start]
	if !ok || p.cancelled {
		return false
	}
	p.cancelled = true
	return true
}

// Flush completes all pending insertions (end of trace).
func (b *Behavior) Flush() {
	for _, p := range b.queue {
		b.complete(p)
	}
	b.queue = b.queue[:0]
}

// Lookups returns the number of accesses performed.
func (b *Behavior) Lookups() uint64 { return b.lookups }

func (b *Behavior) schedule(pw trace.PW, set, foot int) {
	if p, ok := b.inflight[pw.Start]; ok {
		// Coalesce: keep the larger window (new-window formation after
		// a partial hit merges into the in-flight accumulation).
		b.C.NoteCoalescedMiss(pw)
		if pw.NumUops > p.pw.NumUops {
			p.pw = pw
			p.foot = foot
		}
		return
	}
	//simlint:ignore hotpath one pending per coalesced miss, not per lookup; the insertion queue is inherent to the asynchrony model
	p := &pending{pw: pw, due: b.lookups + b.delay, set: set, foot: foot}
	b.inflight[pw.Start] = p
	//simlint:ignore hotpath amortized growth; one queue entry per coalesced miss, reset by Flush
	b.queue = append(b.queue, p)
}

func (b *Behavior) drain() {
	for len(b.queue) > 0 && b.queue[0].due <= b.lookups {
		p := b.queue[0]
		b.queue = b.queue[1:]
		b.complete(p)
	}
}

func (b *Behavior) complete(p *pending) {
	delete(b.inflight, p.pw.Start)
	if p.cancelled {
		b.C.noteBypass(p.set, p.pw)
		return
	}
	b.C.insertAt(p.pw, p.set, p.foot)
}

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
