// Differential fuzz test for the dense (set, slot) storage: a byte-stream of
// cache operations is replayed against both the real Cache (slot arrays, key
// columns, the bound trace's id column and line-bucket counts) and a
// deliberately naive map-based reference model that re-implements the
// documented semantics with Go maps, an inline LRU and a slice for the
// in-flight queue. The two must agree on every per-operation outcome, the
// exact eviction sequence (set, key, order), the final Stats, and the final
// resident population — across geometries, including compaction, and with
// lookups both by address and through a Behavior bound to a trace of them.
// Any divergence in slot allocation, key or id bookkeeping, or line
// bookkeeping shows up as a log mismatch.
package uopcache_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// fuzzGeometries are the slot layouts the fuzzer exercises: the default-ish
// shape, a short-entry shape, a compacted shape (capacity accounted in
// micro-ops), and a tiny high-pressure shape.
var fuzzGeometries = []uopcache.Config{
	{Entries: 64, Ways: 4, UopsPerEntry: 8},
	{Entries: 32, Ways: 8, UopsPerEntry: 4},
	{Entries: 128, Ways: 8, UopsPerEntry: 8, Compaction: true},
	{Entries: 8, Ways: 4, UopsPerEntry: 8},
}

// evictRecorder wraps a policy and appends every OnEvict to a shared log, so
// the dense cache's eviction sequence (from any removal path: replacement,
// growth, EvictKey, line invalidation) can be compared against the model's.
type evictRecorder struct {
	uopcache.Policy
	log *[]string
}

func (p evictRecorder) OnEvict(set int, slot int32, key uint64) {
	*p.log = append(*p.log, fmt.Sprintf("e %d %x", set, key))
	p.Policy.OnEvict(set, slot, key)
}

// refWin is a resident window in the reference model.
type refWin struct {
	key   uint64
	uops  int
	need  int
	lines []uint64
	stamp uint64 // LRU recency; globally unique, refreshed on hit
}

// refCache is the map-based reference: one map per set, linear victim scans,
// no slot handles, no key columns, no line counts — just the semantics.
type refCache struct {
	cfg   uopcache.Config
	cap   int
	sets  []map[uint64]*refWin
	used  []int
	lru   uint64
	stats uopcache.Stats
	log   *[]string
	// clock counts lookups; pipe holds the pending insertions, oldest
	// first.
	clock uint64
	pipe  []refPending
}

// refPending is an insertion in the reference's decode pipe.
type refPending struct {
	pw  trace.PW
	due uint64
}

func newRefCache(cfg uopcache.Config, log *[]string) *refCache {
	capacity := cfg.Ways
	if cfg.Compaction {
		capacity = cfg.Ways * cfg.UopsPerEntry
	}
	r := &refCache{
		cfg:  cfg,
		cap:  capacity,
		sets: make([]map[uint64]*refWin, cfg.Sets()),
		used: make([]int, cfg.Sets()),
		log:  log,
	}
	for i := range r.sets {
		r.sets[i] = make(map[uint64]*refWin)
	}
	return r
}

func (r *refCache) footprint(uops int) int {
	if r.cfg.Compaction {
		if uops < 1 {
			return 1
		}
		return uops
	}
	n := (uops + r.cfg.UopsPerEntry - 1) / r.cfg.UopsPerEntry
	if n < 1 {
		n = 1
	}
	return n
}

func (r *refCache) remove(set int, w *refWin) {
	delete(r.sets[set], w.key)
	r.used[set] -= w.need
	*r.log = append(*r.log, fmt.Sprintf("e %d %x", set, w.key))
}

func (r *refCache) lookup(pw trace.PW) uopcache.ProbeResult {
	want := int(pw.NumUops)
	r.stats.Lookups++
	r.stats.UopsRequested += uint64(want)
	r.clock++
	set := r.cfg.SetIndex(pw.Start)
	w := r.sets[set][pw.Start]
	if w == nil {
		r.stats.Misses++
		r.stats.UopsMissed += uint64(want)
		return uopcache.ProbeResult{Kind: uopcache.ProbeMiss, MissUops: want}
	}
	r.lru++
	w.stamp = r.lru
	if w.uops >= want {
		r.stats.FullHits++
		r.stats.UopsHit += uint64(want)
		return uopcache.ProbeResult{Kind: uopcache.ProbeFull, HitUops: want}
	}
	r.stats.PartialHits++
	r.stats.UopsHit += uint64(w.uops)
	r.stats.UopsMissed += uint64(want - w.uops)
	return uopcache.ProbeResult{Kind: uopcache.ProbePartial, HitUops: w.uops, MissUops: want - w.uops}
}

// access is a bound Behavior's lookup: land the insertions due by this
// lookup, look up, and on a miss or partial hit schedule the window's
// insertion InsertDelay lookups ahead, merging it into a pending insertion
// of the same start (the larger window wins).
func (r *refCache) access(pw trace.PW) uopcache.ProbeResult {
	r.complete(r.clock + 1)
	res := r.lookup(pw)
	if res.MissUops == 0 {
		return res
	}
	for i := range r.pipe {
		if r.pipe[i].pw.Start == pw.Start {
			if pw.NumUops > r.pipe[i].pw.NumUops {
				r.pipe[i].pw = pw
			}
			return res
		}
	}
	r.pipe = append(r.pipe, refPending{pw: pw, due: r.clock + uint64(r.cfg.InsertDelay)})
	return res
}

// complete inserts every pending window due by now, oldest first.
func (r *refCache) complete(now uint64) {
	for len(r.pipe) > 0 && r.pipe[0].due <= now {
		pw := r.pipe[0].pw
		r.pipe = r.pipe[1:]
		r.insert(pw)
	}
}

func (r *refCache) probe(pw trace.PW) uopcache.ProbeResult {
	want := int(pw.NumUops)
	w := r.sets[r.cfg.SetIndex(pw.Start)][pw.Start]
	if w == nil {
		return uopcache.ProbeResult{Kind: uopcache.ProbeMiss, MissUops: want}
	}
	if w.uops >= want {
		return uopcache.ProbeResult{Kind: uopcache.ProbeFull, HitUops: want}
	}
	return uopcache.ProbeResult{Kind: uopcache.ProbePartial, HitUops: w.uops, MissUops: want - w.uops}
}

func (r *refCache) insert(pw trace.PW) uopcache.InsertOutcome {
	set := r.cfg.SetIndex(pw.Start)
	need := r.footprint(int(pw.NumUops))
	if need > r.cap {
		r.stats.Bypasses++
		return uopcache.TooLarge
	}
	if w := r.sets[set][pw.Start]; w != nil {
		if w.uops >= int(pw.NumUops) {
			return uopcache.Redundant
		}
		r.remove(set, w)
	}
	for r.used[set]+need > r.cap {
		// LRU: the resident with the oldest stamp loses (stamps are
		// globally unique, so there are no ties to break).
		var victim *refWin
		for _, w := range r.sets[set] {
			if victim == nil || w.stamp < victim.stamp {
				victim = w
			}
		}
		r.stats.Evictions++
		r.remove(set, victim)
	}
	r.lru++
	r.sets[set][pw.Start] = &refWin{
		key: pw.Start, uops: int(pw.NumUops), need: need,
		lines: refLines(pw.Start, pw.Bytes), stamp: r.lru,
	}
	r.used[set] += need
	r.stats.Insertions++
	r.stats.EntriesWritten += uint64(pw.Entries(r.cfg.UopsPerEntry))
	return uopcache.Inserted
}

// refLines lists the icache lines holding the bytes [start, start+bytes),
// found byte by byte; a zero-byte window lives in start's line.
func refLines(start uint64, bytes uint16) []uint64 {
	lines := []uint64{start &^ (trace.LineSize - 1)}
	for a := start; a < start+uint64(bytes); a++ {
		if l := a &^ (trace.LineSize - 1); l != lines[len(lines)-1] {
			lines = append(lines, l)
		}
	}
	return lines
}

func (r *refCache) evictKey(start uint64) bool {
	set := r.cfg.SetIndex(start)
	w := r.sets[set][start]
	if w == nil {
		return false
	}
	r.stats.Evictions++
	r.remove(set, w)
	return true
}

func (r *refCache) invalidateLine(line uint64) int {
	n := 0
	for set := range r.sets {
		var victims []uint64
		for key, w := range r.sets[set] {
			for _, l := range w.lines {
				if l == line {
					victims = append(victims, key)
					break
				}
			}
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
		for _, key := range victims {
			r.remove(set, r.sets[set][key])
			r.stats.Invalidations++
			n++
		}
	}
	return n
}

func (r *refCache) residentCount() int {
	n := 0
	for _, m := range r.sets {
		n += len(m)
	}
	return n
}

// fuzzPW decodes one operation's window: 256 distinct 16-byte-aligned start
// addresses (dense enough that sets collide constantly) and 1..40 micro-ops
// (large enough to exceed a whole set in the smaller geometries, exercising
// TooLarge). A window normally ends at its line boundary, like a baseline
// window; odd extra bytes request a two-line window so line invalidation
// sees multi-line residents. Extra bit 1 moves the start up by one full turn
// of the line-count table (LineBuckets lines), so distinct lines share a
// bucket row and invalidation must tell them apart. Both the cache and the
// reference derive a window's lines from its start and size.
func fuzzPW(addr, uopsB, extra byte) trace.PW {
	pw := trace.PW{
		Start:   uint64(addr) << 4,
		NumUops: uint16(1 + uopsB%40),
	}
	if extra&2 != 0 {
		pw.Start += uopcache.LineBuckets * trace.LineSize
	}
	pw.Bytes = uint16(min(4*uint64(pw.NumUops), trace.LineSize-pw.Start%trace.LineSize))
	if extra&1 != 0 {
		pw.Bytes = 80 // spans two icache lines from any 16-byte-aligned start
	}
	return pw
}

// FuzzDenseVsReference replays a fuzzer-chosen operation stream against the
// dense Cache and the map-based reference, requiring identical per-op
// outcomes, eviction sequences, Stats, and final contents. Every stream runs
// twice: once with lookups by address, and once with each lookup an Access
// of a Behavior bound to the trace of the stream's lookup windows, its
// insertions delayed by geo/4 mod 4 lookups, while the other operations
// keep going by address.
func FuzzDenseVsReference(f *testing.F) {
	f.Add(uint8(0), []byte{})
	// A lookup/insert mix on one geometry, then streams biased toward each
	// op class so minimization starts near every interesting path.
	f.Add(uint8(0), []byte{0, 1, 5, 0, 3, 1, 5, 0, 0, 1, 5, 0, 3, 2, 9, 1, 6, 1, 0, 0})
	f.Add(uint8(1), []byte{3, 10, 30, 1, 3, 11, 30, 0, 3, 12, 30, 1, 6, 10, 0, 0, 5, 11, 0, 0})
	f.Add(uint8(2), []byte{3, 1, 39, 0, 3, 1, 3, 0, 3, 1, 39, 0, 7, 1, 10, 0})
	f.Add(uint8(3), []byte{3, 200, 20, 1, 3, 201, 20, 1, 3, 202, 20, 1, 3, 203, 20, 1, 6, 200, 0, 0})
	// Two lines one bucket-table turn apart, then invalidate the first:
	// only its window may go (geometry 0 puts them in different sets with
	// one-line windows, geometry 3 in the same set with two-line windows).
	f.Add(uint8(0), []byte{3, 0, 5, 0, 3, 0, 5, 2, 6, 0, 0, 0, 0, 0, 5, 0, 0, 0, 5, 2})
	f.Add(uint8(3), []byte{3, 4, 5, 1, 3, 4, 5, 3, 6, 4, 0, 2, 0, 4, 5, 1, 0, 4, 5, 3})
	f.Fuzz(func(t *testing.T, geo uint8, data []byte) {
		cfg := fuzzGeometries[int(geo)%len(fuzzGeometries)]
		cfg.InsertDelay = int(geo/4) % 4
		t.Run("address", func(t *testing.T) { denseVsReference(t, cfg, data, false) })
		t.Run("bound", func(t *testing.T) { denseVsReference(t, cfg, data, true) })
	})
}

// denseVsReference is one FuzzDenseVsReference run; bound routes the lookups
// through a Behavior bound to a trace prepared from them.
func denseVsReference(t *testing.T, cfg uopcache.Config, data []byte, bound bool) {
	var denseLog, refLog []string
	c := uopcache.New(cfg, evictRecorder{Policy: policy.NewLRU(), log: &denseLog})
	ref := newRefCache(cfg, &refLog)
	var b *uopcache.Behavior
	if bound {
		var seq []trace.PW
		for i := 0; i+4 <= len(data); i += 4 {
			if data[i]%8 <= 2 {
				seq = append(seq, fuzzPW(data[i+1], data[i+2], data[i+3]))
			}
		}
		b = uopcache.NewBehavior(c, nil, uopcache.Prepare(cfg, seq))
	}
	next := 0 // the bound trace's next position

	for i := 0; i+4 <= len(data); i += 4 {
		op, addr, uopsB, extra := data[i], data[i+1], data[i+2], data[i+3]
		pw := fuzzPW(addr, uopsB, extra)
		switch op % 8 {
		case 0, 1, 2: // lookup (the common op)
			var got, want uopcache.ProbeResult
			if bound {
				got, want = b.Access(next), ref.access(pw)
				next++
			} else {
				got, want = c.Lookup(pw), ref.lookup(pw)
			}
			if got != want {
				t.Fatalf("op %d: Lookup(%#x/%d) = %+v, reference %+v", i, pw.Start, pw.NumUops, got, want)
			}
		case 3, 4: // insert
			got, want := c.Insert(pw), ref.insert(pw)
			if got != want {
				t.Fatalf("op %d: Insert(%#x/%d) = %v, reference %v", i, pw.Start, pw.NumUops, got, want)
			}
		case 5: // forced eviction
			got, want := c.EvictKey(pw.Start), ref.evictKey(pw.Start)
			if got != want {
				t.Fatalf("op %d: EvictKey(%#x) = %v, reference %v", i, pw.Start, got, want)
			}
		case 6: // inclusive line invalidation
			line := trace.LineAddr(pw.Start)
			got, want := c.InvalidateLine(line), ref.invalidateLine(line)
			if got != want {
				t.Fatalf("op %d: InvalidateLine(%#x) = %d, reference %d", i, line, got, want)
			}
		case 7: // stateless probe
			got, want := c.Probe(pw), ref.probe(pw)
			if got != want {
				t.Fatalf("op %d: Probe(%#x/%d) = %+v, reference %+v", i, pw.Start, pw.NumUops, got, want)
			}
		}
		if len(denseLog) != len(refLog) {
			t.Fatalf("op %d: eviction log length %d, reference %d\ndense %v\nref   %v",
				i, len(denseLog), len(refLog), denseLog, refLog)
		}
	}
	if bound {
		b.Flush()
		ref.complete(math.MaxUint64)
	}

	for i := range denseLog {
		if denseLog[i] != refLog[i] {
			t.Fatalf("eviction %d: dense %q, reference %q", i, denseLog[i], refLog[i])
		}
	}
	if c.Stats != ref.stats {
		t.Fatalf("stats diverged:\ndense %+v\nref   %+v", c.Stats, ref.stats)
	}
	if got, want := c.ResidentCount(), ref.residentCount(); got != want {
		t.Fatalf("resident count %d, reference %d", got, want)
	}
	// The resident count matches, so every reference window being resident
	// with its micro-ops, and every set's occupancy matching, pins the
	// contents. The reference's inline LRU stamps on the same events the
	// cache does, so the cache's recency stamps must equal its stamps.
	for set := 0; set < cfg.Sets(); set++ {
		for key, w := range ref.sets[set] {
			r, ok := c.ResidentFor(key)
			if got := c.Probe(trace.PW{Start: key, NumUops: math.MaxUint16}).HitUops; !ok || got != w.uops {
				t.Fatalf("set %d window %#x: dense resident=%v uops=%d, reference %+v", set, key, ok, got, w)
			}
			if r.Stamp != w.stamp {
				t.Fatalf("set %d window %#x: stamp %d, reference %d", set, key, r.Stamp, w.stamp)
			}
		}
		if got := c.UsedEntries(set); got != ref.used[set] {
			t.Fatalf("set %d uses %d, reference %d", set, got, ref.used[set])
		}
	}
}
