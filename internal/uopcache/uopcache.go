// Package uopcache models the micro-op cache: a set-associative structure
// whose storage unit is a fixed-size entry (8 micro-ops by default) but whose
// lookup/insertion/eviction unit is the prediction window (PW), which may
// span multiple entries in the same set. It implements the three properties
// the paper identifies as essential and absent from conventional caches:
//
//   - disproportionate miss costs: a PW's size (entries) and cost (micro-ops)
//     are independent; misses are accounted in micro-ops;
//   - partial hits: a stored window serves any lookup with the same start
//     address and fewer micro-ops (intermediate exit points); a lookup for
//     MORE micro-ops than stored is served partially, with the remainder
//     decoded and the merged larger window re-inserted;
//   - asynchronous lookup and insertion: insertions land a mode-chosen
//     delay after the triggering miss (lookups in behaviour mode, cycles in
//     timing mode) through the cache's one in-flight queue, with in-flight
//     windows coalescing subsequent misses.
//
// Replacement is delegated to a Policy; every policy the paper evaluates
// (online and offline) implements that interface.
//
// Storage layout: residents live in a dense per-set slot array (a slot is a
// (set, way) position, like hardware ways), found by a small per-set
// linear-probe index instead of a Go map. The slot number is a stable handle
// for the resident's whole lifetime — policies receive it on every event and
// keep their metadata in flat per-slot arrays, which is both faster than
// map[key] lookups and faithful to how hardware stores RRPV/recency bits.
package uopcache

import (
	"fmt"
	"math/bits"
	"slices"

	"uopsim/internal/cache"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
)

// Config sizes the micro-op cache. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Entries is the total number of fixed-size entries (paper: 512).
	Entries int
	// Ways is the number of entries per set (paper: 8).
	Ways int
	// UopsPerEntry is the micro-op capacity of one entry (paper: 8).
	UopsPerEntry int
	// InsertDelay is the number of subsequent lookups after which a
	// triggered insertion completes, modelling the decode-pipeline
	// latency relative to the lookup rate (behaviour mode).
	InsertDelay int
	// Compaction enables idealized entry compaction (the upper bound of
	// the CLASP/compaction techniques of Kotra & Kalamatianos, MICRO
	// 2020): windows share entries perfectly, so a set's capacity is
	// accounted in micro-ops (Ways x UopsPerEntry) rather than whole
	// entries, eliminating internal fragmentation.
	Compaction bool
}

// DefaultConfig returns the paper's Zen3-like configuration: 512 entries,
// 8-way, 8 micro-ops per entry, with a 3-lookup insertion delay.
func DefaultConfig() Config {
	return Config{Entries: 512, Ways: 8, UopsPerEntry: 8, InsertDelay: 3}
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Entries / c.Ways }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.UopsPerEntry <= 0 {
		return fmt.Errorf("uopcache: non-positive geometry %+v", c)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("uopcache: %d entries not divisible by %d ways", c.Entries, c.Ways)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("uopcache: set count %d not a power of two", s)
	}
	if c.InsertDelay < 0 {
		return fmt.Errorf("uopcache: negative insert delay")
	}
	return nil
}

// Resident describes a PW currently stored in the cache.
type Resident struct {
	// Key is the window's start address.
	Key uint64
	// Uops is the stored micro-op count (the cost).
	Uops int
	// EntriesUsed is the number of entry slots occupied (the size).
	EntriesUsed int
	// InsertedAt is the lookup sequence number of the insertion.
	InsertedAt uint64
	// LastHitAt is the lookup sequence number of the last hit.
	LastHitAt uint64
	// Slot is the resident's stable slot handle within its set: assigned
	// at insertion, fixed until eviction, passed to every Policy event so
	// policies can index flat per-slot metadata arrays.
	Slot int32
	// Bytes is the window's code footprint. With Key it names the icache
	// lines the window lives in (trace.LineSpan: one line normally, two
	// for a CLASP-style cross-line window), used for inclusive
	// invalidation.
	Bytes uint16
}

// Decision is a replacement policy's answer when space is needed.
type Decision struct {
	// Bypass requests that the incoming window not be inserted.
	Bypass bool
	// VictimKey names the resident PW to evict when not bypassing.
	VictimKey uint64
	// Reason states the grounds for the choice using a small, constant
	// per-policy vocabulary (e.g. ReasonLRUOldest). Constant strings keep
	// the hot path allocation-free; empty means "not stated".
	Reason string
	// Score is the ranking value the victim lost with (stamp, RRPV, ETR,
	// weight, ...). Units are policy-specific.
	Score float64
}

// Decision reason vocabulary shared across policies. Policies with richer
// internal state define additional constants next to their implementation;
// all are plain constant strings so stamping a Decision never allocates.
const (
	// ReasonForced marks eager evictions commanded by an offline plan or
	// an external invalidation, not chosen by the online policy.
	ReasonForced = "forced"
)

// Geometry is what a Policy binds to: the dense slot layout for its
// metadata and the cache's lookup clock. The cache has Sets x SlotsPerSet
// slots, and every resident's (set, slot) pair is stable for its lifetime.
// SlotsPerSet equals Ways normally and Ways x UopsPerEntry under compaction
// (one slot per micro-op of capacity, the maximum number of co-resident
// windows).
type Geometry struct {
	Sets        int
	SlotsPerSet int
	// Clock reads the cache's lookup clock (Cache.Clock). It ticks once
	// per lookup in both simulation modes and ResetStats leaves it alone,
	// so a plan-driven policy uses it as its position in the lookup
	// sequence.
	Clock func() uint64
}

// Slots returns the total slot count; policies size per-slot arrays with it.
func (g Geometry) Slots() int { return g.Sets * g.SlotsPerSet }

// Policy selects victims and observes cache events. Implementations keep
// per-resident metadata in flat arrays indexed by the (set, slot) handle the
// cache passes with every event: Bind is called once before any other event
// with the cache geometry, and a resident's slot is stable from its OnInsert
// to its OnEvict (slots are reused after eviction, always through a fresh
// OnInsert).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Bind sizes per-slot metadata and may keep g.Clock; called once by
	// New before any event.
	Bind(g Geometry)
	// OnHit fires when a lookup hits resident window key in set.
	OnHit(set int, slot int32, key uint64)
	// OnInsert fires after window pw was inserted into set at slot.
	OnInsert(set int, slot int32, pw trace.PW)
	// OnEvict fires when window key leaves set (eviction, invalidation,
	// or replacement by a larger same-start window); slot is released.
	OnEvict(set int, slot int32, key uint64)
	// Victim chooses the next eviction victim among residents, or
	// requests a bypass of the incoming window. It is called repeatedly
	// until enough entries are free. residents is non-empty, in slot
	// (way) order, and each element carries its Slot handle.
	Victim(set int, residents []Resident, incoming trace.PW) Decision
}

// ProbeKind classifies a lookup outcome.
type ProbeKind uint8

const (
	// ProbeMiss: no window with this start address is resident.
	ProbeMiss ProbeKind = iota
	// ProbeFull: the stored window covers the whole lookup.
	ProbeFull
	// ProbePartial: a window with this start is resident but shorter
	// than the lookup; stored micro-ops are served, the rest is decoded.
	ProbePartial
)

// ProbeResult reports what a lookup found.
type ProbeResult struct {
	Kind ProbeKind
	// HitUops is the number of micro-ops served from the cache.
	HitUops int
	// MissUops is the number of micro-ops that must come from the
	// legacy decode path.
	MissUops int
}

// lineBuckets is the number of line buckets in the cache's line-count table
// (a power of two). An icache line falls in bucket lineBucket(line); distinct
// lines that share a bucket only cost InvalidateLine a scan of each other's
// sets.
const lineBuckets = 64

// lineBucket maps an icache line address to its row of the line-count table.
func lineBucket(line uint64) int { return int(line/trace.LineSize) & (lineBuckets - 1) }

// Cache is the micro-op cache structure. It is not safe for concurrent use.
type Cache struct {
	cfg    Config
	policy Policy
	sets   []cset
	// lineCount[lineBucket(line)*len(sets)+set] counts the windows of set
	// whose code lives in a line of that bucket (a window counts once per
	// line it spans), so InvalidateLine scans only the sets that may hold
	// the evicted line. Allocated once in New; updates never allocate.
	lineCount []int32
	clock     uint64

	// Dense slot geometry: every set owns capSlots Resident slots and an
	// idxLen-entry linear-probe index (power of two, <=50% loaded).
	capSlots int
	idxMask  uint32

	// totalResidents counts occupied slots cache-wide (the value behind
	// the uopcache_slot_occupancy gauge).
	totalResidents int

	// viewBuf is the reusable victim-snapshot buffer handed to
	// Policy.Victim; capacity capSlots, so refilling it never allocates.
	viewBuf []Resident
	// invVictims is InvalidateLine's scratch buffer.
	invVictims []uint64

	// inflight[:qLen] are the insertions still in the decode pipe,
	// oldest first (see inflight.go).
	inflight []inflightInsert
	qLen     int

	// sink receives the structured decision trace; m holds the live
	// uopcache_* metrics. Both are nil unless attached, and every
	// emission site guards with a nil check so the hot path pays nothing
	// when observability is off.
	sink    telemetry.EventSink
	m       *cacheMetrics
	polName string

	Stats Stats
}

// cacheMetrics pre-resolves the registry counters the cache increments at
// exactly the sites the Stats fields are incremented, so the exposed
// uopcache_* counters reconcile with Stats at any instant.
type cacheMetrics struct {
	lookups, fullHits, partialHits, misses     *telemetry.Counter
	uopsRequested, uopsHit, uopsMissed         *telemetry.Counter
	insertions, entriesWritten                 *telemetry.Counter
	bypasses, evictions, invalidations         *telemetry.Counter
	coalesced                                  *telemetry.Counter
	slotOccupancy                              *telemetry.Gauge
	lookupUops, victimCostUops, victimReuseAge *telemetry.Histogram
}

func newCacheMetrics(reg *telemetry.Registry) *cacheMetrics {
	return &cacheMetrics{
		lookups:        reg.Counter("uopcache_lookups_total"),
		fullHits:       reg.Counter("uopcache_full_hits_total"),
		partialHits:    reg.Counter("uopcache_partial_hits_total"),
		misses:         reg.Counter("uopcache_misses_total"),
		uopsRequested:  reg.Counter("uopcache_uops_requested_total"),
		uopsHit:        reg.Counter("uopcache_uops_hit_total"),
		uopsMissed:     reg.Counter("uopcache_uops_missed_total"),
		insertions:     reg.Counter("uopcache_insertions_total"),
		entriesWritten: reg.Counter("uopcache_entries_written_total"),
		bypasses:       reg.Counter("uopcache_bypasses_total"),
		evictions:      reg.Counter("uopcache_evictions_total"),
		invalidations:  reg.Counter("uopcache_invalidations_total"),
		coalesced:      reg.Counter("uopcache_coalesced_misses_total"),
		slotOccupancy:  reg.Gauge("uopcache_slot_occupancy"),
		lookupUops:     reg.Histogram("uopcache_lookup_uops"),
		victimCostUops: reg.Histogram("uopcache_victim_cost_uops"),
		victimReuseAge: reg.Histogram("uopcache_victim_reuse_age_lookups"),
	}
}

// cset is one set's dense storage: capSlots Resident slots (a slot is free
// iff its occupancy bit is clear), an occupancy bitmap, and a linear-probe
// index mapping window keys to slot numbers (entries store slot+1; 0 means
// empty).
type cset struct {
	slots []Resident
	occ   []uint64
	idx   []int32
	used  int
	count int
}

// Stats aggregates micro-op cache activity. Misses are counted in micro-ops
// (the paper's metric) as well as in lookups.
type Stats struct {
	Lookups     uint64
	FullHits    uint64
	PartialHits uint64
	Misses      uint64

	UopsRequested uint64
	UopsHit       uint64
	UopsMissed    uint64

	Insertions     uint64
	EntriesWritten uint64
	Bypasses       uint64
	Evictions      uint64
	Invalidations  uint64
}

// UopMissRate returns missed micro-ops / requested micro-ops.
func (s Stats) UopMissRate() float64 {
	if s.UopsRequested == 0 {
		return 0
	}
	return float64(s.UopsMissed) / float64(s.UopsRequested)
}

// hashKey spreads window start addresses over the probe index (the
// finalizer of MurmurHash3/SplitMix64; full avalanche, so consecutive
// starts do not cluster probes).
func hashKey(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// New builds a micro-op cache with the given replacement policy; it panics
// on invalid configuration (configurations are static).
func New(cfg Config, policy Policy) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:     cfg,
		policy:  policy,
		polName: policy.Name(),
	}
	c.capSlots = c.setCapacity()
	idxLen := 8
	for idxLen < 2*c.capSlots {
		idxLen *= 2
	}
	c.idxMask = uint32(idxLen - 1)
	numSets := cfg.Sets()
	occWords := (c.capSlots + 63) / 64
	// One backing array per kind, sliced per set: contiguous, and a single
	// allocation each.
	slotB := make([]Resident, numSets*c.capSlots)
	occB := make([]uint64, numSets*occWords)
	idxB := make([]int32, numSets*idxLen)
	c.sets = make([]cset, numSets)
	for i := range c.sets {
		s := &c.sets[i]
		s.slots = slotB[i*c.capSlots : (i+1)*c.capSlots : (i+1)*c.capSlots]
		s.occ = occB[i*occWords : (i+1)*occWords : (i+1)*occWords]
		s.idx = idxB[i*idxLen : (i+1)*idxLen : (i+1)*idxLen]
		// Mark the bitmap tail beyond capSlots occupied so allocSlot can
		// never hand out an out-of-range slot.
		for b := c.capSlots; b < occWords*64; b++ {
			s.occ[b>>6] |= 1 << (uint(b) & 63)
		}
	}
	c.lineCount = make([]int32, lineBuckets*numSets)
	c.viewBuf = make([]Resident, 0, c.capSlots)
	c.inflight = make([]inflightInsert, max(cfg.InsertDelay, 1))
	policy.Bind(Geometry{Sets: numSets, SlotsPerSet: c.capSlots, Clock: c.Clock})
	return c
}

// findSlot returns the slot holding key in set s, or -1.
//
//simlint:hotpath
func (c *Cache) findSlot(s *cset, key uint64) int32 {
	i := uint32(hashKey(key)) & c.idxMask
	for {
		v := s.idx[i]
		if v == 0 {
			return -1
		}
		if s.slots[v-1].Key == key {
			return v - 1
		}
		i = (i + 1) & c.idxMask
	}
}

// addIdx records key -> slot in the probe index.
func (c *Cache) addIdx(s *cset, key uint64, slot int32) {
	i := uint32(hashKey(key)) & c.idxMask
	for s.idx[i] != 0 {
		i = (i + 1) & c.idxMask
	}
	s.idx[i] = slot + 1
}

// delIdx removes key from the probe index with backward-shift deletion
// (entries displaced past the hole are moved back onto their probe path, so
// no tombstones accumulate and probes stay short).
func (c *Cache) delIdx(s *cset, key uint64) {
	mask := c.idxMask
	i := uint32(hashKey(key)) & mask
	for {
		v := s.idx[i]
		if v == 0 {
			return // not present (caller bug; tolerated)
		}
		if s.slots[v-1].Key == key {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		e := s.idx[j]
		if e == 0 {
			s.idx[i] = 0
			return
		}
		h := uint32(hashKey(s.slots[e-1].Key)) & mask
		// e can fill the hole at i iff i lies on e's probe path, i.e. the
		// cyclic distance home->j covers the distance i->j.
		if (j-h)&mask >= (j-i)&mask {
			s.idx[i] = e
			i = j
		}
	}
}

// allocSlot returns the lowest free slot in the set (tail bits beyond
// capSlots are pre-marked occupied, so the scan cannot overrun).
func (s *cset) allocSlot() int32 {
	for w, bs := range s.occ {
		if bs != ^uint64(0) {
			return int32(w*64 + bits.TrailingZeros64(^bs))
		}
	}
	panic("uopcache: no free slot in a set below capacity")
}

// SetEventSink attaches (or, with nil, detaches) the structured decision
// trace. With no sink attached the instrumented paths reduce to a nil check.
func (c *Cache) SetEventSink(s telemetry.EventSink) { c.sink = s }

// AttachMetrics registers the cache's live uopcache_* counters and
// histograms in reg. Counters are incremented at exactly the sites the
// Stats fields are, so both views reconcile at any instant.
func (c *Cache) AttachMetrics(reg *telemetry.Registry) {
	if reg == nil {
		c.m = nil
		return
	}
	c.m = newCacheMetrics(reg)
	c.m.slotOccupancy.Set(float64(c.totalResidents))
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Policy returns the replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// SetIndex maps a window start address to its set.
func (c *Cache) SetIndex(start uint64) int { return c.cfg.SetIndex(start) }

// SetIndex maps a window start address to its set for this geometry; offline
// policies use it to partition the lookup trace per set.
func (c Config) SetIndex(start uint64) int {
	// Fold two bit ranges above the low offset bits. Plain bit selection
	// ((start>>4) & mask) severely imbalances sets on structured code
	// layouts (functions laid out at regular strides), inflating conflict
	// misses far beyond the paper's ~11%; XOR-folding is the standard
	// cure and matches how real frontends hash micro-op cache indices.
	return int(((start >> 4) ^ (start >> 11)) & uint64(c.Sets()-1))
}

// Footprint returns a window's storage cost in the geometry's accounting
// unit: whole entries normally, micro-ops under idealized compaction. It is
// the per-window column PreparedTrace precomputes, defined here so the
// formula lives in one place.
func (c Config) Footprint(uops int) int {
	if c.Compaction {
		if uops < 1 {
			return 1
		}
		return uops
	}
	n := (uops + c.UopsPerEntry - 1) / c.UopsPerEntry
	if n < 1 {
		n = 1
	}
	return n
}

// Sig fingerprints the parts of the configuration the prepared-trace
// columns depend on: the set count (set index), and the micro-ops per entry
// and compaction mode (footprint). Geometries that differ only in how the
// same sets are split into entries and ways — 512/8 and 1024/16 — share a
// prepared trace. InsertDelay is excluded too: it affects replay timing,
// not per-window attributes.
func (c Config) Sig() uint64 {
	s := uint64(c.Sets())<<32 | uint64(c.UopsPerEntry)<<1
	if c.Compaction {
		s |= 1
	}
	return hashKey(s)
}

// Prepare builds the shared columnar view of a PW lookup sequence for this
// geometry: precomputed set indices, storage footprints and the occurrence
// index every offline replay needs. Build it once per (trace, geometry) and
// hand it to every replay of the same sequence.
func Prepare(cfg Config, pws []trace.PW) *trace.PreparedTrace {
	return trace.Prepare(pws, cfg.Sig(),
		cfg.SetIndex,
		func(p trace.PW) int { return cfg.Footprint(int(p.NumUops)) },
	)
}

// PreparedFor returns pt when it was built over exactly pws under a
// geometry with cfg's Sig, and otherwise prepares pws afresh. It is the one
// place a caller-supplied trace is checked before its columns are trusted;
// a nil pt means "build one".
func PreparedFor(cfg Config, pws []trace.PW, pt *trace.PreparedTrace) *trace.PreparedTrace {
	if pt != nil && pt.Sig() == cfg.Sig() && pt.SameSequence(pws) {
		return pt
	}
	return Prepare(cfg, pws)
}

// EvictKey force-evicts the window with the given start address, if
// resident (used by offline policies performing eager evictions). It
// returns true when a window was removed.
func (c *Cache) EvictKey(start uint64) bool {
	set := c.SetIndex(start)
	s := &c.sets[set]
	slot := c.findSlot(s, start)
	if slot < 0 {
		return false
	}
	c.Stats.Evictions++
	c.observeEviction(set, &s.slots[slot], 0, Decision{VictimKey: start, Reason: ReasonForced})
	c.removeResident(set, slot)
	return true
}

// lastTouch is the lookup sequence number a resident was last useful at.
func lastTouch(r *Resident) uint64 {
	if r.LastHitAt > 0 {
		return r.LastHitAt
	}
	return r.InsertedAt
}

// observeEviction mirrors a Stats.Evictions increment into the metrics and
// event trace; call it BEFORE removeResident so victim details are intact.
// incoming is the start address of the window whose insertion forced the
// eviction (zero when eager/offline); d carries the policy's stated reason
// and losing score for attribution.
func (c *Cache) observeEviction(set int, r *Resident, incoming uint64, d Decision) {
	if c.m != nil {
		c.m.evictions.Inc()
		c.m.victimCostUops.Observe(uint64(r.Uops))
		c.m.victimReuseAge.Observe(c.clock - lastTouch(r))
	}
	if c.sink != nil {
		c.sink.Emit(telemetry.Event{
			Seq: c.clock, Kind: telemetry.EventEvict, Set: set, Key: r.Key,
			VictimKey: r.Key, VictimUops: r.Uops, VictimAge: c.clock - lastTouch(r),
			IncomingKey: incoming, Reason: d.Reason, Score: d.Score,
			Policy: c.polName,
		})
	}
}

// noteBypass mirrors a Stats.Bypasses increment (policy bypass, over-large
// window, or cancelled in-flight insertion).
func (c *Cache) noteBypass(set int, pw trace.PW) {
	c.Stats.Bypasses++
	if c.m != nil {
		c.m.bypasses.Inc()
	}
	if c.sink != nil {
		c.sink.Emit(telemetry.Event{
			Seq: c.clock, Kind: telemetry.EventBypass, Set: set, Key: pw.Start,
			Uops: int(pw.NumUops), Policy: c.polName,
		})
	}
}

// noteCoalesce records a miss merging into an in-flight insertion (no Stats
// field aggregates these).
func (c *Cache) noteCoalesce(set int, pw trace.PW) {
	if c.m != nil {
		c.m.coalesced.Inc()
	}
	if c.sink != nil {
		c.sink.Emit(telemetry.Event{
			Seq: c.clock, Kind: telemetry.EventCoalesce, Set: set,
			Key: pw.Start, Uops: int(pw.NumUops), Policy: c.polName,
		})
	}
}

// NotePerfectHit accounts a lookup served by an idealized always-hit cache
// (the timing model's PerfectUopCache switch) so Stats, metrics and the
// event trace stay mutually consistent under the perfect-structure studies.
func (c *Cache) NotePerfectHit(pw trace.PW) {
	c.clock++
	want := int(pw.NumUops)
	c.Stats.Lookups++
	c.Stats.FullHits++
	c.Stats.UopsRequested += uint64(want)
	c.Stats.UopsHit += uint64(want)
	if c.m != nil {
		c.m.lookups.Inc()
		c.m.fullHits.Inc()
		c.m.uopsRequested.Add(uint64(want))
		c.m.uopsHit.Add(uint64(want))
		c.m.lookupUops.Observe(uint64(want))
	}
	if c.sink != nil {
		c.sink.Emit(telemetry.Event{
			Seq: c.clock, Kind: telemetry.EventHit, Set: c.SetIndex(pw.Start),
			Key: pw.Start, Uops: want, HitUops: want, Policy: c.polName,
		})
	}
}

// Lookup probes the cache for pw, updating hit statistics and policy
// recency. It does NOT trigger an insertion: the caller schedules one on its
// own clock (Schedule), because that is where the asynchrony lives.
//
//simlint:hotpath
func (c *Cache) Lookup(pw trace.PW) ProbeResult {
	return c.lookupAt(pw, c.SetIndex(pw.Start))
}

// lookupAt is Lookup with the window's set index precomputed by the caller
// (the prepared-trace path hands in the column value; Lookup derives it).
//
//simlint:hotpath
func (c *Cache) lookupAt(pw trace.PW, set int) ProbeResult {
	c.clock++
	c.Stats.Lookups++
	want := int(pw.NumUops)
	c.Stats.UopsRequested += uint64(want)
	if c.m != nil {
		c.m.lookups.Inc()
		c.m.uopsRequested.Add(uint64(want))
		c.m.lookupUops.Observe(uint64(want))
	}
	s := &c.sets[set]
	slot := c.findSlot(s, pw.Start)
	if slot < 0 {
		c.Stats.Misses++
		c.Stats.UopsMissed += uint64(want)
		if c.m != nil {
			c.m.misses.Inc()
			c.m.uopsMissed.Add(uint64(want))
		}
		if c.sink != nil {
			c.sink.Emit(telemetry.Event{
				Seq: c.clock, Kind: telemetry.EventMiss, Set: set, Key: pw.Start,
				Uops: want, MissUops: want, Policy: c.polName,
			})
		}
		return ProbeResult{Kind: ProbeMiss, MissUops: want}
	}
	r := &s.slots[slot]
	r.LastHitAt = c.clock
	c.policy.OnHit(set, slot, pw.Start)
	if r.Uops >= want {
		c.Stats.FullHits++
		c.Stats.UopsHit += uint64(want)
		if c.m != nil {
			c.m.fullHits.Inc()
			c.m.uopsHit.Add(uint64(want))
		}
		if c.sink != nil {
			c.sink.Emit(telemetry.Event{
				Seq: c.clock, Kind: telemetry.EventHit, Set: set, Key: pw.Start,
				Uops: want, HitUops: want, Policy: c.polName,
			})
		}
		return ProbeResult{Kind: ProbeFull, HitUops: want}
	}
	c.Stats.PartialHits++
	c.Stats.UopsHit += uint64(r.Uops)
	c.Stats.UopsMissed += uint64(want - r.Uops)
	if c.m != nil {
		c.m.partialHits.Inc()
		c.m.uopsHit.Add(uint64(r.Uops))
		c.m.uopsMissed.Add(uint64(want - r.Uops))
	}
	if c.sink != nil {
		c.sink.Emit(telemetry.Event{
			Seq: c.clock, Kind: telemetry.EventPartial, Set: set, Key: pw.Start,
			Uops: want, HitUops: r.Uops, MissUops: want - r.Uops, Policy: c.polName,
		})
	}
	return ProbeResult{Kind: ProbePartial, HitUops: r.Uops, MissUops: want - r.Uops}
}

// Probe reports what a lookup would find without touching statistics or
// policy state (used by oracles and shadow analyses).
func (c *Cache) Probe(pw trace.PW) ProbeResult {
	want := int(pw.NumUops)
	s := &c.sets[c.SetIndex(pw.Start)]
	slot := c.findSlot(s, pw.Start)
	if slot < 0 {
		return ProbeResult{Kind: ProbeMiss, MissUops: want}
	}
	r := &s.slots[slot]
	if r.Uops >= want {
		return ProbeResult{Kind: ProbeFull, HitUops: want}
	}
	return ProbeResult{Kind: ProbePartial, HitUops: r.Uops, MissUops: want - r.Uops}
}

// InsertOutcome reports what Insert did.
type InsertOutcome uint8

const (
	// Inserted: the window is now resident.
	Inserted InsertOutcome = iota
	// Bypassed: the policy declined to insert.
	Bypassed
	// Redundant: an equal-or-larger window with the same start was
	// already resident; nothing changed.
	Redundant
	// TooLarge: the window needs more entries than a whole set has.
	TooLarge
)

// setCapacity returns a set's capacity in the active accounting unit:
// entries normally, micro-ops under idealized compaction.
func (c *Cache) setCapacity() int {
	if c.cfg.Compaction {
		return c.cfg.Ways * c.cfg.UopsPerEntry
	}
	return c.cfg.Ways
}

// footprint returns a window's cost against setCapacity's unit.
func (c *Cache) footprint(uops int) int { return c.cfg.Footprint(uops) }

// Insert places pw into the cache, consulting the policy for victims as
// needed. If a smaller window with the same start address is resident it is
// replaced (the paper and the AMD patent keep the larger window); an
// equal-or-larger resident makes the insertion redundant.
//
//simlint:hotpath
func (c *Cache) Insert(pw trace.PW) InsertOutcome {
	return c.insertAt(pw, c.SetIndex(pw.Start), c.footprint(int(pw.NumUops)))
}

// insertAt is Insert with the window's set index and storage footprint
// precomputed by the caller (the prepared-trace path hands in the column
// values; Insert derives them).
//
//simlint:hotpath
func (c *Cache) insertAt(pw trace.PW, set, need int) InsertOutcome {
	s := &c.sets[set]
	if need > c.capSlots {
		c.noteBypass(set, pw)
		return TooLarge
	}
	if existing := c.findSlot(s, pw.Start); existing >= 0 {
		if s.slots[existing].Uops >= int(pw.NumUops) {
			return Redundant
		}
		// Grow: the merged larger window replaces the smaller one.
		c.removeResident(set, existing)
	}
	for s.used+need > c.capSlots {
		residents := c.residentsView(set)
		d := c.policy.Victim(set, residents, pw)
		if d.Bypass {
			c.noteBypass(set, pw)
			return Bypassed
		}
		victim := c.findSlot(s, d.VictimKey)
		if victim < 0 {
			//simlint:ignore hotpath cold invariant-violation path; never taken unless a policy is buggy
			panic(fmt.Sprintf("uopcache: policy %s chose non-resident victim %#x in set %d",
				c.policy.Name(), d.VictimKey, set))
		}
		c.Stats.Evictions++
		c.observeEviction(set, &s.slots[victim], pw.Start, d)
		c.removeResident(set, victim)
	}
	slot := s.allocSlot()
	r := &s.slots[slot]
	r.Key = pw.Start
	r.Uops = int(pw.NumUops)
	r.EntriesUsed = need
	r.InsertedAt = c.clock
	r.LastHitAt = 0
	r.Slot = slot
	r.Bytes = pw.Bytes
	s.occ[slot>>6] |= 1 << (uint(slot) & 63)
	s.used += need
	s.count++
	c.totalResidents++
	c.addIdx(s, pw.Start, slot)
	first, last := pw.Lines()
	for l := first; l <= last; l += trace.LineSize {
		c.lineAddRef(l, set)
	}
	c.Stats.Insertions++
	c.Stats.EntriesWritten += uint64(pw.Entries(c.cfg.UopsPerEntry))
	if c.m != nil {
		c.m.insertions.Inc()
		c.m.entriesWritten.Add(uint64(pw.Entries(c.cfg.UopsPerEntry)))
		c.m.slotOccupancy.Set(float64(c.totalResidents))
	}
	if c.sink != nil {
		c.sink.Emit(telemetry.Event{
			Seq: c.clock, Kind: telemetry.EventInsert, Set: set, Key: pw.Start,
			Uops: int(pw.NumUops), Policy: c.polName,
		})
	}
	c.policy.OnInsert(set, slot, pw)
	return Inserted
}

// lineAddRef records one more window of set living in line.
//
//simlint:hotpath
func (c *Cache) lineAddRef(line uint64, set int) {
	c.lineCount[lineBucket(line)*len(c.sets)+set]++
}

// lineDecRef drops one window of set from line.
//
//simlint:hotpath
func (c *Cache) lineDecRef(line uint64, set int) {
	c.lineCount[lineBucket(line)*len(c.sets)+set]--
}

// removeResident releases the slot, updating set and line bookkeeping and
// notifying the policy.
//
//simlint:hotpath
func (c *Cache) removeResident(set int, slot int32) {
	s := &c.sets[set]
	r := &s.slots[slot]
	key := r.Key
	c.delIdx(s, key)
	s.occ[slot>>6] &^= 1 << (uint(slot) & 63)
	s.used -= r.EntriesUsed
	s.count--
	c.totalResidents--
	first, last := trace.LineSpan(key, r.Bytes)
	for l := first; l <= last; l += trace.LineSize {
		c.lineDecRef(l, set)
	}
	// Clear EntriesUsed so stale contents cannot be mistaken for a resident.
	r.EntriesUsed = 0
	if c.m != nil {
		c.m.slotOccupancy.Set(float64(c.totalResidents))
	}
	c.policy.OnEvict(set, slot, key)
}

// MakeInclusive makes the cache inclusive in l1i (Section II-A): every L1i
// eviction invalidates the windows whose code lives in the evicted line.
func (c *Cache) MakeInclusive(l1i *cache.Cache) {
	l1i.OnEvict = func(lineAddr uint64) { c.InvalidateLine(lineAddr) }
}

// InvalidateLine evicts every window whose code lives in the given icache
// line (the L1i eviction path MakeInclusive wires up).
func (c *Cache) InvalidateLine(lineAddr uint64) int {
	if trace.LineAddr(lineAddr) != lineAddr {
		return 0 // not a line address: no window's line span holds it
	}
	// The line's bucket row, walked in ascending set order. A nonzero count
	// means the set holds a window from this line or from another line of
	// the same bucket; the line-span check below tells them apart. Removal
	// only lowers the current set's count, so the walk needs no snapshot.
	b := lineBucket(lineAddr) * len(c.sets)
	row := c.lineCount[b : b+len(c.sets)]
	n := 0
	victims := c.invVictims
	if cap(victims) < c.capSlots {
		victims = make([]uint64, 0, c.capSlots)
	}
	for set := range row {
		if row[set] == 0 {
			continue
		}
		s := &c.sets[set]
		victims = victims[:0]
		for i := range s.slots {
			r := &s.slots[i]
			if r.EntriesUsed == 0 {
				continue
			}
			if first, last := trace.LineSpan(r.Key, r.Bytes); first <= lineAddr && lineAddr <= last {
				victims = append(victims, r.Key)
			}
		}
		// Sorted so eviction events replay in the same order every run.
		slices.Sort(victims)
		for _, key := range victims {
			slot := c.findSlot(s, key)
			if c.m != nil || c.sink != nil {
				r := &s.slots[slot]
				if c.m != nil {
					c.m.invalidations.Inc()
				}
				if c.sink != nil {
					c.sink.Emit(telemetry.Event{
						Seq: c.clock, Kind: telemetry.EventInvalidate, Set: set, Key: key,
						VictimKey: key, VictimUops: r.Uops, VictimAge: c.clock - lastTouch(r),
						Policy: c.polName,
					})
				}
			}
			c.removeResident(set, slot)
			c.Stats.Invalidations++
			n++
		}
	}
	c.invVictims = victims
	return n
}

// residentsView snapshots the residents of a set for the policy, in slot
// (way) order — a deterministic order by construction, since slot assignment
// depends only on the event sequence. The buffer is reused across calls and
// sized to the set capacity at New, so refilling it never allocates.
//
//simlint:hotpath
func (c *Cache) residentsView(set int) []Resident {
	s := &c.sets[set]
	out := c.viewBuf
	if cap(out) < c.capSlots {
		out = make([]Resident, 0, c.capSlots) // unreachable after New; keeps the capacity proof local
	}
	out = out[:0]
	for i := range s.slots {
		if s.slots[i].EntriesUsed != 0 {
			out = append(out, s.slots[i])
		}
	}
	c.viewBuf = out
	return out
}

// Residents returns a snapshot of the residents of a set in slot order (for
// analyses). Unlike the policy-facing view, the snapshot is freshly
// allocated, so callers may retain it.
func (c *Cache) Residents(set int) []Resident {
	s := &c.sets[set]
	out := make([]Resident, 0, s.count)
	for i := range s.slots {
		if s.slots[i].EntriesUsed == 0 {
			continue
		}
		out = append(out, s.slots[i])
	}
	return out
}

// ResidentFor returns a copy of the resident window for a start address, if
// any.
func (c *Cache) ResidentFor(start uint64) (Resident, bool) {
	s := &c.sets[c.SetIndex(start)]
	slot := c.findSlot(s, start)
	if slot < 0 {
		return Resident{}, false
	}
	return s.slots[slot], true
}

// UsedEntries returns the number of occupied entries in a set.
func (c *Cache) UsedEntries(set int) int { return c.sets[set].used }

// TotalUsedEntries returns the number of occupied entries cache-wide.
func (c *Cache) TotalUsedEntries() int {
	n := 0
	for i := range c.sets {
		n += c.sets[i].used
	}
	return n
}

// ResidentCount returns the number of occupied slots cache-wide (the value
// the uopcache_slot_occupancy gauge exposes).
func (c *Cache) ResidentCount() int { return c.totalResidents }

// Clock returns the lookup sequence number: the number of lookups so far,
// monotonic and untouched by ResetStats.
func (c *Cache) Clock() uint64 { return c.clock }

// Utilization reports how full the occupied entries are: stored micro-ops
// divided by the micro-op capacity of the entries they occupy. Values below
// 1 quantify the internal fragmentation the paper's Section II-C describes
// (a PW's last entry is generally only partially filled); CLASP/compaction
// (Kotra & Kalamatianos) attack exactly this gap.
func (c *Cache) Utilization() float64 {
	var uops, capUops int
	for i := range c.sets {
		for j := range c.sets[i].slots {
			r := &c.sets[i].slots[j]
			if r.EntriesUsed == 0 {
				continue
			}
			uops += r.Uops
			if c.cfg.Compaction {
				capUops += r.EntriesUsed
			} else {
				capUops += r.EntriesUsed * c.cfg.UopsPerEntry
			}
		}
	}
	if capUops == 0 {
		return 0
	}
	return float64(uops) / float64(capUops)
}

// Occupancy returns the fraction of total capacity currently allocated
// (entries normally, micro-ops under compaction).
func (c *Cache) Occupancy() float64 {
	total := c.cfg.Entries
	if c.cfg.Compaction {
		total = c.cfg.Entries * c.cfg.UopsPerEntry
	}
	return float64(c.TotalUsedEntries()) / float64(total)
}

// ResetStats clears the statistics without disturbing contents or the
// lookup clock; runs use it to discard warmup effects.
func (c *Cache) ResetStats() { c.Stats = Stats{} }
