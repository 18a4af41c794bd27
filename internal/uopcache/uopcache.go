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
// (set, way) position, like hardware ways) beside a key column holding each
// slot's start address plus one (0: free), which an address lookup scans like
// a tag compare. A behaviour-mode replay instead finds residents by its
// prepared trace's dense key ids (NewBehavior), through an id column whose
// slot hints the key column confirms. The slot number is a stable handle for
// the resident's whole lifetime — policies receive it on every event and keep
// their metadata in flat per-slot arrays, as hardware stores RRPV bits.
//
// Recency is the cache's: one cache-wide touch counter stamps a slot at each
// hit and each insertion, exactly where the policy's OnHit and OnInsert are
// called, so stamps are unique and order every set's residents from least to
// most recently used. Policy.Victim reads them in its Resident view and
// names its victim by slot.
package uopcache

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

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
	if n := c.slotsPerSet(); n > math.MaxUint16 {
		return fmt.Errorf("uopcache: %d slots per set exceed the %d the id column can name", n, math.MaxUint16)
	}
	return nil
}

// slotsPerSet returns a set's capacity in the active accounting unit, which
// is also its slot count: entries normally, micro-ops under idealized
// compaction.
func (c Config) slotsPerSet() int {
	if c.Compaction {
		return c.Ways * c.UopsPerEntry
	}
	return c.Ways
}

// Resident is a policy's view of one window stored in a set.
type Resident struct {
	// Key is the window's start address.
	Key uint64
	// Slot is the resident's stable slot handle within its set: assigned
	// at insertion, fixed until eviction, passed to every Policy event so
	// policies can index flat per-slot metadata arrays.
	Slot int32
	// Stamp is the cache's touch counter at the window's insertion or
	// latest hit. Stamps are unique cache-wide: the smallest in a set is
	// its least recently used window.
	Stamp uint64
}

// Decision is a replacement policy's answer when space is needed.
type Decision struct {
	// Bypass requests that the incoming window not be inserted.
	Bypass bool
	// Victim is the slot of the resident to evict when not bypassing.
	Victim int32
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
// OnInsert). Recency needs no metadata: the cache stamps a slot at each
// OnHit and OnInsert and hands the stamps to Victim.
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
	// Victim chooses the next eviction victim among residents and names
	// it by slot, or requests a bypass of the incoming window. It is
	// called repeatedly until enough entries are free. residents is
	// non-empty and in slot (way) order; the cache reuses its storage, so
	// a policy must not keep it past the call.
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
	// touches is the recency counter: it ticks at every hit and insertion,
	// and the touched slot's record takes its value as its stamp.
	touches uint64

	// Dense slot geometry: every set owns capSlots slot records and as
	// many key-column words.
	capSlots int
	// setMask is the set count less one (Config.Validate requires a power
	// of two), computed once so SetIndex does not divide.
	setMask uint64

	// totalResidents counts occupied slots cache-wide (the value behind
	// the uopcache_slot_occupancy gauge).
	totalResidents int

	// viewBuf is the reusable Resident view buffer handed to
	// Policy.Victim; capacity capSlots, so refilling it never allocates.
	viewBuf []Resident
	// invVictims is InvalidateLine's scratch buffer.
	invVictims []keySlot

	// bound is the trace a Behavior bound the cache to (nil: none), and
	// idSlot[id] one more than the slot the window with that key id was
	// last inserted at (0: never); the key column unmasks stale entries.
	bound  *trace.PreparedTrace
	idSlot []uint16

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
// uopcache_* counters reconcile with Stats at any instant. The pol* counters
// are the policy_<name>_* family: each counts the cache's calls of one
// Policy method (and Victim's bypass answers), at its single call site.
type cacheMetrics struct {
	lookups, fullHits, partialHits, misses     *telemetry.Counter
	uopsRequested, uopsHit, uopsMissed         *telemetry.Counter
	insertions, entriesWritten                 *telemetry.Counter
	bypasses, evictions, invalidations         *telemetry.Counter
	coalesced                                  *telemetry.Counter
	slotOccupancy                              *telemetry.Gauge
	lookupUops, victimCostUops, victimReuseAge *telemetry.Histogram

	polHits, polInserts, polEvictions *telemetry.Counter
	polVictimCalls, polBypasses       *telemetry.Counter
}

// policyCounter resolves policy_<name>_<what>_total, with the policy name
// mapped into the [a-z0-9_] metric-name alphabet (e.g. "ship++" ->
// "ship__", "foo+A" -> "foo_a").
func policyCounter(reg *telemetry.Registry, name, what string) *telemetry.Counter {
	b := []byte(strings.ToLower(name))
	for i, c := range b {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			b[i] = '_'
		}
	}
	return reg.Counter("policy_" + string(b) + "_" + what + "_total") //simlint:ignore telemetry per-policy family policy_<name>_*, the name mapped into [a-z0-9_] above
}

func newCacheMetrics(reg *telemetry.Registry, polName string) *cacheMetrics {
	return &cacheMetrics{
		polHits:        policyCounter(reg, polName, "hits"),
		polInserts:     policyCounter(reg, polName, "inserts"),
		polEvictions:   policyCounter(reg, polName, "evictions"),
		polVictimCalls: policyCounter(reg, polName, "victim_calls"),
		polBypasses:    policyCounter(reg, polName, "bypasses"),
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

// cset is one set's dense storage: capSlots slot records and the packed key
// column beside them. keys[i] is slot i's window start plus one, and 0 marks
// a free slot (a window cannot start at math.MaxUint64; insertAt rejects
// one).
type cset struct {
	slots []slotRec
	keys  []uint64
	used  int
}

// slotRec is what the cache stores about the window in one slot, besides
// its key.
type slotRec struct {
	// uops is the stored micro-op count (the cost), and entries the slots'
	// worth of capacity it occupies (the size, Config.Footprint).
	uops, entries int32
	// bytes is the window's code footprint. With the key it names the
	// icache lines the window lives in (trace.LineSpan: one line normally,
	// two for a CLASP-style cross-line window), used for inclusive
	// invalidation.
	bytes uint16
	// touched is the lookup clock at the window's insertion or latest hit:
	// the point its reuse age is measured from.
	touched uint64
	// stamp is the recency counter's value at the same touch.
	stamp uint64
}

// keySlot is one resident InvalidateLine removes: its key and its slot.
type keySlot struct {
	key  uint64
	slot int32
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
	c.capSlots = cfg.slotsPerSet()
	numSets := cfg.Sets()
	c.setMask = uint64(numSets - 1)
	// One backing array per column, sliced per set: contiguous, and a
	// single allocation each.
	slotB := make([]slotRec, numSets*c.capSlots)
	keyB := make([]uint64, numSets*c.capSlots)
	c.sets = make([]cset, numSets)
	for i := range c.sets {
		lo, hi := i*c.capSlots, (i+1)*c.capSlots
		c.sets[i] = cset{slots: slotB[lo:hi:hi], keys: keyB[lo:hi:hi]}
	}
	c.lineCount = make([]int32, lineBuckets*numSets)
	c.viewBuf = make([]Resident, 0, c.capSlots)
	c.inflight = make([]inflightInsert, max(cfg.InsertDelay, 1))
	policy.Bind(Geometry{Sets: numSets, SlotsPerSet: c.capSlots, Clock: c.Clock})
	return c
}

// find returns the slot holding the window that starts at start, or -1.
//
//simlint:hotpath
func (s *cset) find(start uint64) int32 {
	k := start + 1
	if k == 0 {
		return -1 // no window starts at math.MaxUint64; 0 marks free slots
	}
	for i, v := range s.keys {
		if v == k {
			return int32(i)
		}
	}
	return -1
}

// allocSlot returns the lowest free slot in the set.
//
//simlint:hotpath
func (s *cset) allocSlot() int32 {
	for i, v := range s.keys {
		if v == 0 {
			return int32(i)
		}
	}
	panic("uopcache: no free slot in a set below capacity")
}

// slotOf returns the slot holding the window that starts at start in set,
// or -1. An id from the bound trace finds it through the id column, whose
// hint the key column confirms; id -1 scans the set.
//
//simlint:hotpath
func (c *Cache) slotOf(set int, start uint64, id int32) int32 {
	s := &c.sets[set]
	if id < 0 {
		return s.find(start)
	}
	if h := int32(c.idSlot[id]) - 1; h >= 0 && s.keys[h] == start+1 {
		return h
	}
	return -1
}

// idOf returns start's dense key id in the bound trace, or -1 when no trace
// is bound or start is not in it. Only address-keyed insertions pay it, and
// its map lookup only on a bound cache.
//
//simlint:hotpath
func (c *Cache) idOf(start uint64) int32 {
	if c.bound != nil {
		if id, ok := c.bound.IDOf(start); ok {
			return id
		}
	}
	return -1
}

// bind keys a fresh cache to pt's dense ids for NewBehavior, and makes a
// non-nil icache inclusive. Only an unused cache can be bound: the windows
// of one already run would have no ids in the column.
func (c *Cache) bind(pt *trace.PreparedTrace, icache *cache.Cache) {
	if pt.Sig() != c.cfg.Sig() {
		panic("uopcache: prepared trace built under another geometry (see PreparedFor)")
	}
	if c.bound != nil || c.clock != 0 || c.totalResidents != 0 || c.qLen != 0 {
		panic("uopcache: a Behavior needs a cache of its own that has not run")
	}
	if icache != nil {
		c.MakeInclusive(icache)
	}
	c.bound = pt
	c.idSlot = make([]uint16, pt.NumKeys())
}

// SetEventSink attaches (or, with nil, detaches) the structured decision
// trace. With no sink attached the instrumented paths reduce to a nil check.
func (c *Cache) SetEventSink(s telemetry.EventSink) { c.sink = s }

// AttachMetrics registers the cache's live uopcache_* counters and
// histograms in reg, and its policy's policy_<name>_* decision counters.
// Counters are incremented at exactly the sites the Stats fields are, and
// at the sites the cache calls the policy, so both views reconcile at any
// instant.
func (c *Cache) AttachMetrics(reg *telemetry.Registry) {
	if reg == nil {
		c.m = nil
		return
	}
	c.m = newCacheMetrics(reg, c.polName)
	c.m.slotOccupancy.Set(float64(c.totalResidents))
}

// SetIndex maps a window start address to its set.
func (c *Cache) SetIndex(start uint64) int { return foldSet(start, c.setMask) }

// SetIndex maps a window start address to its set for this geometry; offline
// policies use it to partition the lookup trace per set.
func (c Config) SetIndex(start uint64) int { return foldSet(start, uint64(c.Sets()-1)) }

// foldSet is the set of a window starting at start among setMask+1 sets.
// It folds two bit ranges above the low offset bits. Plain bit selection
// ((start>>4) & mask) severely imbalances sets on structured code layouts
// (functions laid out at regular strides), inflating conflict misses far
// beyond the paper's ~11%; XOR-folding is the standard cure and matches how
// real frontends hash micro-op cache indices.
func foldSet(start, setMask uint64) int {
	return int(((start >> 4) ^ (start >> 11)) & setMask)
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
	x := uint64(c.Sets())<<32 | uint64(c.UopsPerEntry)<<1
	if c.Compaction {
		x |= 1
	}
	// The MurmurHash3/SplitMix64 finalizer: full avalanche.
	x = (x ^ x>>33) * 0xFF51AFD7ED558CCD
	x = (x ^ x>>33) * 0xC4CEB9FE1A85EC53
	return x ^ x>>33
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
	slot := c.sets[set].find(start)
	if slot < 0 {
		return false
	}
	c.Stats.Evictions++
	c.observeEviction(set, slot, 0, Decision{Victim: slot, Reason: ReasonForced})
	c.removeResident(set, slot)
	return true
}

// observeEviction mirrors a Stats.Evictions increment into the metrics and
// event trace; call it BEFORE removeResident so victim details are intact.
// incoming is the start address of the window whose insertion forced the
// eviction (zero when eager/offline); d carries the policy's stated reason
// and losing score for attribution.
func (c *Cache) observeEviction(set int, slot int32, incoming uint64, d Decision) {
	s := &c.sets[set]
	r := &s.slots[slot]
	if c.m != nil {
		c.m.evictions.Inc()
		c.m.victimCostUops.Observe(uint64(r.uops))
		c.m.victimReuseAge.Observe(c.clock - r.touched)
	}
	if c.sink != nil {
		key := s.keys[slot] - 1
		c.sink.Emit(telemetry.Event{
			Seq: c.clock, Kind: telemetry.EventEvict, Set: set, Key: key,
			VictimKey: key, VictimUops: int(r.uops), VictimAge: c.clock - r.touched,
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

// Lookup probes the cache for pw, updating hit statistics and, on a hit, the
// window's recency stamp. It does NOT trigger an insertion: the caller
// schedules one on its own clock (Schedule), because that is where the
// asynchrony lives.
//
//simlint:hotpath
func (c *Cache) Lookup(pw trace.PW) ProbeResult {
	set := c.SetIndex(pw.Start)
	return c.lookupAt(pw, set, c.sets[set].find(pw.Start))
}

// lookupAt is Lookup with the window's set index and its slot (-1 when not
// resident) found by the caller: Lookup scans the key column, a bound
// Behavior reads the trace's columns and the id column.
//
//simlint:hotpath
func (c *Cache) lookupAt(pw trace.PW, set int, slot int32) ProbeResult {
	c.clock++
	c.Stats.Lookups++
	want := int(pw.NumUops)
	c.Stats.UopsRequested += uint64(want)
	if c.m != nil {
		c.m.lookups.Inc()
		c.m.uopsRequested.Add(uint64(want))
		c.m.lookupUops.Observe(uint64(want))
	}
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
	r := &c.sets[set].slots[slot]
	c.touches++
	r.touched, r.stamp = c.clock, c.touches
	c.policy.OnHit(set, slot, pw.Start)
	stored := int(r.uops)
	if stored >= want {
		c.Stats.FullHits++
		c.Stats.UopsHit += uint64(want)
		if c.m != nil {
			c.m.polHits.Inc()
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
	c.Stats.UopsHit += uint64(stored)
	c.Stats.UopsMissed += uint64(want - stored)
	if c.m != nil {
		c.m.polHits.Inc()
		c.m.partialHits.Inc()
		c.m.uopsHit.Add(uint64(stored))
		c.m.uopsMissed.Add(uint64(want - stored))
	}
	if c.sink != nil {
		c.sink.Emit(telemetry.Event{
			Seq: c.clock, Kind: telemetry.EventPartial, Set: set, Key: pw.Start,
			Uops: want, HitUops: stored, MissUops: want - stored, Policy: c.polName,
		})
	}
	return ProbeResult{Kind: ProbePartial, HitUops: stored, MissUops: want - stored}
}

// Probe reports what a lookup would find without touching statistics or
// policy state. Only tests call it, to observe residency.
func (c *Cache) Probe(pw trace.PW) ProbeResult {
	want := int(pw.NumUops)
	s := &c.sets[c.SetIndex(pw.Start)]
	slot := s.find(pw.Start)
	if slot < 0 {
		return ProbeResult{Kind: ProbeMiss, MissUops: want}
	}
	stored := int(s.slots[slot].uops)
	if stored >= want {
		return ProbeResult{Kind: ProbeFull, HitUops: want}
	}
	return ProbeResult{Kind: ProbePartial, HitUops: stored, MissUops: want - stored}
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

// Insert places pw into the cache, consulting the policy for victims as
// needed. If a smaller window with the same start address is resident it is
// replaced (the paper and the AMD patent keep the larger window); an
// equal-or-larger resident makes the insertion redundant.
//
//simlint:hotpath
func (c *Cache) Insert(pw trace.PW) InsertOutcome {
	return c.insertAt(pw, c.SetIndex(pw.Start), c.cfg.Footprint(int(pw.NumUops)), c.idOf(pw.Start))
}

// insertAt is Insert with the window's set index, storage footprint and
// dense key id (-1: none) supplied by the caller (the prepared-trace path
// hands in the column values; Insert derives them).
//
//simlint:hotpath
func (c *Cache) insertAt(pw trace.PW, set, need int, id int32) InsertOutcome {
	if pw.Start == math.MaxUint64 {
		panic("uopcache: a window cannot start at math.MaxUint64 (the key column stores start+1)")
	}
	s := &c.sets[set]
	if need > c.capSlots {
		c.noteBypass(set, pw)
		return TooLarge
	}
	if existing := c.slotOf(set, pw.Start, id); existing >= 0 {
		if int(s.slots[existing].uops) >= int(pw.NumUops) {
			return Redundant
		}
		// Grow: the merged larger window replaces the smaller one.
		c.removeResident(set, existing)
	}
	for s.used+need > c.capSlots {
		residents := c.residentsView(set)
		d := c.policy.Victim(set, residents, pw)
		if c.m != nil {
			c.m.polVictimCalls.Inc()
			if d.Bypass {
				c.m.polBypasses.Inc()
			}
		}
		if d.Bypass {
			c.noteBypass(set, pw)
			return Bypassed
		}
		if d.Victim < 0 || int(d.Victim) >= c.capSlots || s.keys[d.Victim] == 0 {
			panic("uopcache: a policy named a victim slot that holds no resident")
		}
		c.Stats.Evictions++
		c.observeEviction(set, d.Victim, pw.Start, d)
		c.removeResident(set, d.Victim)
	}
	slot := s.allocSlot()
	c.touches++
	s.slots[slot] = slotRec{
		uops: int32(pw.NumUops), entries: int32(need), bytes: pw.Bytes,
		touched: c.clock, stamp: c.touches,
	}
	s.keys[slot] = pw.Start + 1
	if id >= 0 {
		c.idSlot[id] = uint16(slot + 1)
	}
	s.used += need
	c.totalResidents++
	first, last := pw.Lines()
	for l := first; l <= last; l += trace.LineSize {
		c.lineCount[lineBucket(l)*len(c.sets)+set]++
	}
	c.Stats.Insertions++
	c.Stats.EntriesWritten += uint64(pw.Entries(c.cfg.UopsPerEntry))
	if c.m != nil {
		c.m.polInserts.Inc()
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

// removeResident releases the slot, updating set and line bookkeeping and
// notifying the policy.
//
//simlint:hotpath
func (c *Cache) removeResident(set int, slot int32) {
	s := &c.sets[set]
	r := &s.slots[slot]
	key := s.keys[slot] - 1
	s.keys[slot] = 0
	s.used -= int(r.entries)
	c.totalResidents--
	first, last := trace.LineSpan(key, r.bytes)
	for l := first; l <= last; l += trace.LineSize {
		c.lineCount[lineBucket(l)*len(c.sets)+set]--
	}
	if c.m != nil {
		c.m.polEvictions.Inc()
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
		victims = make([]keySlot, 0, c.capSlots)
	}
	for set := range row {
		if row[set] == 0 {
			continue
		}
		s := &c.sets[set]
		victims = victims[:0]
		for i, k := range s.keys {
			if k == 0 {
				continue
			}
			if first, last := trace.LineSpan(k-1, s.slots[i].bytes); first <= lineAddr && lineAddr <= last {
				victims = append(victims, keySlot{key: k - 1, slot: int32(i)})
			}
		}
		// Sorted by key so eviction events replay in the same order every
		// run; removal leaves the other residents' slots where they are.
		slices.SortFunc(victims, func(a, b keySlot) int { return cmp.Compare(a.key, b.key) })
		for _, v := range victims {
			if c.m != nil || c.sink != nil {
				r := &s.slots[v.slot]
				if c.m != nil {
					c.m.invalidations.Inc()
				}
				if c.sink != nil {
					c.sink.Emit(telemetry.Event{
						Seq: c.clock, Kind: telemetry.EventInvalidate, Set: set, Key: v.key,
						VictimKey: v.key, VictimUops: int(r.uops), VictimAge: c.clock - r.touched,
						Policy: c.polName,
					})
				}
			}
			c.removeResident(set, v.slot)
			c.Stats.Invalidations++
			n++
		}
	}
	c.invVictims = victims
	return n
}

// residentsView fills the policy's view of a set's residents from the key
// column and the stamps, in slot (way) order — a deterministic order by
// construction, since slot assignment depends only on the event sequence.
// The buffer is reused across calls and sized to the set capacity at New, so
// refilling it never allocates.
//
//simlint:hotpath
func (c *Cache) residentsView(set int) []Resident {
	s := &c.sets[set]
	out := c.viewBuf
	if cap(out) < c.capSlots {
		out = make([]Resident, 0, c.capSlots) // unreachable after New; keeps the capacity proof local
	}
	out = out[:0]
	for i, k := range s.keys {
		if k != 0 {
			out = append(out, Resident{Key: k - 1, Slot: int32(i), Stamp: s.slots[i].stamp})
		}
	}
	c.viewBuf = out
	return out
}

// ResidentFor returns the policy's view of the resident window for a start
// address, if any.
func (c *Cache) ResidentFor(start uint64) (Resident, bool) {
	s := &c.sets[c.SetIndex(start)]
	slot := s.find(start)
	if slot < 0 {
		return Resident{}, false
	}
	return Resident{Key: start, Slot: slot, Stamp: s.slots[slot].stamp}, true
}

// UsedEntries returns a set's occupied capacity in the active accounting
// unit: entries normally, micro-ops under compaction.
func (c *Cache) UsedEntries(set int) int { return c.sets[set].used }

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
		for j, k := range c.sets[i].keys {
			if k == 0 {
				continue
			}
			r := &c.sets[i].slots[j]
			uops += int(r.uops)
			if c.cfg.Compaction {
				capUops += int(r.entries)
			} else {
				capUops += int(r.entries) * c.cfg.UopsPerEntry
			}
		}
	}
	if capUops == 0 {
		return 0
	}
	return float64(uops) / float64(capUops)
}

// ResetStats clears the statistics without disturbing contents or the
// lookup clock; runs use it to discard warmup effects.
func (c *Cache) ResetStats() { c.Stats = Stats{} }
