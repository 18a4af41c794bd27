package uopcache

import "uopsim/internal/trace"

// inflightInsert is one insertion still in the decode pipe. The cache owns
// the one queue of them that both simulation modes share, each on its own
// clock: lookups in behaviour mode (InsertDelay), cycles in timing mode (the
// frontend's decode latency). Due times never decrease and each clock tick
// schedules at most one window, so at most max(delay, 1) are in flight and
// a short array kept oldest-first, searched linearly, serves as the queue.
type inflightInsert struct {
	pw  trace.PW
	due uint64
	// set and foot are the window's set index and storage footprint, and
	// id its dense key id in the bound trace (-1: none).
	set, foot int
	id        int32
	// cancelled marks an insertion an offline policy decided to skip
	// (FLACK's late-insertion safeguard): it is bypassed on arrival.
	cancelled bool
}

// Schedule queues pw's insertion to land at due, coalescing with an
// in-flight window of the same start. Due times must not decrease from one
// call to the next.
//
//simlint:hotpath
func (c *Cache) Schedule(pw trace.PW, due uint64) {
	c.scheduleAt(pw, c.SetIndex(pw.Start), c.cfg.Footprint(int(pw.NumUops)), c.idOf(pw.Start), due)
}

// scheduleAt is Schedule with the window's set index, storage footprint and
// dense key id supplied by the caller (the prepared-trace path hands in the
// column values; Schedule derives them).
//
//simlint:hotpath
func (c *Cache) scheduleAt(pw trace.PW, set, foot int, id int32, due uint64) {
	if e := c.findInFlight(pw.Start); e != nil {
		// Coalesce: keep the larger window (new-window formation after
		// a partial hit merges into the in-flight accumulation). A
		// cancelled entry stays cancelled.
		c.noteCoalesce(set, pw)
		if pw.NumUops > e.pw.NumUops {
			e.pw, e.foot = pw, foot
		}
		return
	}
	if c.qLen == len(c.inflight) {
		// New sized the queue for InsertDelay; only a longer delay
		// gets here.
		grown := make([]inflightInsert, 2*c.qLen)
		copy(grown, c.inflight)
		c.inflight = grown
	}
	c.inflight[c.qLen] = inflightInsert{pw: pw, due: due, set: set, foot: foot, id: id}
	c.qLen++
}

// Complete lands every insertion due by now, oldest first; a cancelled one
// is counted as a bypass instead. Complete(math.MaxUint64) flushes the queue
// at the end of a run.
//
//simlint:hotpath
func (c *Cache) Complete(now uint64) {
	for c.qLen > 0 && c.inflight[0].due <= now {
		e := c.inflight[0]
		c.qLen = copy(c.inflight, c.inflight[1:c.qLen])
		if e.cancelled {
			c.noteBypass(e.set, e.pw)
			continue
		}
		c.insertAt(e.pw, e.set, e.foot, e.id)
	}
}

// CancelInFlight marks start's pending insertion to be bypassed on arrival
// (FLACK's asynchrony handling: a window the offline policy decides not to
// cache may already be in the decode pipe). It reports whether a live
// insertion was cancelled.
func (c *Cache) CancelInFlight(start uint64) bool {
	e := c.findInFlight(start)
	if e == nil || e.cancelled {
		return false
	}
	e.cancelled = true
	return true
}

// InFlightCount returns the number of pending insertions, cancelled ones
// included.
func (c *Cache) InFlightCount() int { return c.qLen }

// findInFlight returns start's pending insertion, or nil.
//
//simlint:hotpath
func (c *Cache) findInFlight(start uint64) *inflightInsert {
	for i := range c.inflight[:c.qLen] {
		if c.inflight[i].pw.Start == start {
			return &c.inflight[i]
		}
	}
	return nil
}
