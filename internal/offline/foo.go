package offline

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"uopsim/internal/flow"
	"uopsim/internal/parallel"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// CostModel selects the objective of the flow formulation.
type CostModel int

const (
	// CostOHR charges every missed interval 1, regardless of window size
	// or micro-op count (FOO's object-hit-ratio objective).
	CostOHR CostModel = iota
	// CostBHR charges a missed interval its size in entries (FOO's
	// byte-hit-ratio objective; entries play the role of bytes).
	CostBHR
	// CostVC charges a missed interval its micro-op count — FLACK's
	// variable-cost objective, the paper's miss metric.
	CostVC
)

// String names the cost model.
func (m CostModel) String() string {
	switch m {
	case CostOHR:
		return "ohr"
	case CostBHR:
		return "bhr"
	case CostVC:
		return "vc"
	default:
		return "unknown"
	}
}

// costScale makes per-unit edge costs integral: it is divisible by every
// possible window size in entries (1..8).
const costScale = 840

// DefaultSegmentLimit bounds the per-set request count solved in one
// min-cost-flow instance; longer per-set traces are solved in consecutive
// segments with boundary-crossing intervals treated as misses. This is the
// standard practical deployment of FOO on long traces.
const DefaultSegmentLimit = 4096

// Decisions holds the offline keep/evict plan: Keep[i] reports whether the
// window looked up at global position i should stay cached until its next
// lookup.
type Decisions struct {
	Keep []bool
	// Model records the objective the plan optimized.
	Model CostModel
	// FoldVariants records whether overlapping same-start windows were
	// treated as one object (FLACK's SB feature).
	FoldVariants bool
}

// KeptFraction reports the fraction of intervals the plan retains; useful
// as a quick sanity measure in tests and reports.
func (d *Decisions) KeptFraction() float64 {
	if len(d.Keep) == 0 {
		return 0
	}
	n := 0
	for _, k := range d.Keep {
		if k {
			n++
		}
	}
	return float64(n) / float64(len(d.Keep))
}

type fooRequest struct {
	pos  int32 // global lookup position
	next int32 // distance to the object's next request in its set; 0 = none
	size int32 // entries
	cost int32 // micro-ops
}

// ComputeDecisionsPrepared solves the FOO/FLACK interval-caching problem
// for the whole lookup sequence of a prepared trace built under cfg's
// geometry. The cache's set-associativity decomposes the problem: each set
// is an independent capacity-constrained timeline solved with min-cost
// flow. foldVariants enables FLACK's treatment of overlapping same-start
// windows as one object sized by its largest variant. segLimit bounds the
// per-set flow instance (0 selects DefaultSegmentLimit).
//
// workers bounds the solver's parallelism (0 = GOMAXPROCS, 1 = serial).
// Every (set, segment) flow instance is independent — each builds its
// flow.Graph in scratch its worker holds alone and writes keep decisions at
// the disjoint trace positions of its own requests — so the fan-out needs
// no locking and the resulting plan is byte-identical at any worker count.
//
// ctx (nil = never cancelled) makes a long solve abandonable: when it is
// cancelled, segments that have not started solving are skipped so the call
// returns quickly. The returned plan is then INCOMPLETE and must be
// discarded — callers that hold a cancellable context are responsible for
// checking ctx.Err() before using the plan (the experiment scheduler does
// this centrally before merging any cell result).
func ComputeDecisionsPrepared(ctx context.Context, pt *trace.PreparedTrace, cfg uopcache.Config, model CostModel, foldVariants bool, segLimit, workers int) *Decisions {
	dec := &Decisions{Keep: make([]bool, pt.Len()), Model: model, FoldVariants: foldVariants}
	segs := segmentRequests(pt, cfg, foldVariants, segLimit)
	parallel.ForEach(ctx, workers, len(segs), func(i int) {
		solveSegment(segs[i], cfg.Ways, model, dec)
	})
	return dec
}

// segmentRequests partitions the prepared trace's lookups per set and cuts
// each set's requests into segments of at most segLimit (0 selects
// DefaultSegmentLimit): the independent min-cost-flow instances, in set
// order.
//
// It also links every request to its object's next request. With folding,
// an object is the start address (its dense key id) and its footprint is
// that of its largest variant (the steady-state stored window). Without
// folding, each (start, micro-ops) variant is a separate object —
// Belady/FOO's view — resolved through a short per-key list of variants. A
// start address maps to one set, so an object's requests all lie in one
// set's list and a link is a distance within it; one pass over the trace
// links every set. A link that reaches past its segment's end opens no
// interval there.
func segmentRequests(pt *trace.PreparedTrace, cfg uopcache.Config, foldVariants bool, segLimit int) [][]fooRequest {
	if segLimit <= 0 {
		segLimit = DefaultSegmentLimit
	}
	n := pt.Len()
	sets := cfg.Sets()

	// The per-set request lists are carved out of one arena in set order.
	// end[s] starts as set s's first slot and advances as the set fills,
	// so after the fill it is the set's end (and set s+1's start).
	end := make([]int32, sets+1)
	for i := 0; i < n; i++ {
		end[pt.Set(i)+1]++
	}
	for s := 1; s <= sets; s++ {
		end[s] += end[s-1]
	}
	end = end[:sets]
	arena := make([]fooRequest, n)

	// Per-object state: last is 1 + the arena slot of the object's latest
	// request (0 before its first). With folding, max is the PREFIX max of
	// the key's micro-op counts: the cache stores the largest window seen
	// so far (growth happens on partial hits), so planning against the
	// global max would overstate early intervals' size and cost. Without
	// folding, head[key] is 1 + the index of the key's newest variant and
	// each variant chains to the key's previous one.
	type foldKey struct{ max, last int32 }
	type variant struct {
		uops        uint16
		last, chain int32
	}
	var keys []foldKey
	var head []int32
	var variants []variant
	if foldVariants {
		keys = make([]foldKey, pt.NumKeys())
	} else {
		head = make([]int32, pt.NumKeys())
		variants = make([]variant, 0, pt.NumKeys())
	}
	for i := 0; i < n; i++ {
		p := pt.At(i)
		s := pt.Set(i)
		slot := end[s]
		end[s]++
		id := pt.KeyID(i)
		cost := int32(p.NumUops)
		var last *int32
		if foldVariants {
			k := &keys[id]
			k.max = max(k.max, cost)
			cost = k.max
			last = &k.last
		} else {
			v := head[id]
			for v != 0 && variants[v-1].uops != p.NumUops {
				v = variants[v-1].chain
			}
			if v == 0 {
				variants = append(variants, variant{uops: p.NumUops, chain: head[id]})
				v = int32(len(variants))
				head[id] = v
			}
			last = &variants[v-1].last
		}
		size := (cost + int32(cfg.UopsPerEntry) - 1) / int32(cfg.UopsPerEntry)
		if size < 1 {
			size = 1
		}
		arena[slot] = fooRequest{pos: int32(i), size: size, cost: cost}
		if prev := *last - 1; prev >= 0 {
			arena[prev].next = slot - prev
		}
		*last = slot + 1
	}

	// Flatten the (set, segment) instances into one work list so a few
	// long sets cannot serialize the tail of the fan-out.
	nSegs, lo := 0, int32(0)
	for _, hi := range end {
		nSegs += (int(hi-lo) + segLimit - 1) / segLimit
		lo = hi
	}
	segs := make([][]fooRequest, 0, nSegs)
	lo = 0
	for _, hi := range end {
		reqs := arena[lo:hi:hi]
		for off := 0; off < len(reqs); off += segLimit {
			segs = append(segs, reqs[off:min(off+segLimit, len(reqs))])
		}
		lo = hi
	}
	return segs
}

// segScratch is one worker's reusable segment-build state: the interval
// list, the per-request load, overload and core-node columns, the supply
// vector, the inner-edge capacities and the flow graph itself. Each segment
// resets it instead of allocating, so a warm pool makes the per-segment
// build allocation-free.
type segScratch struct {
	intervals []interval
	load      []int64
	over      []int32
	supply    []int64
	node      []int32
	inner     []int64
	g         flow.Graph
}

// interval is one outer edge: the requests it spans, its size in entries,
// the per-unit cost of missing it, and its edge id once the graph is built.
type interval struct {
	from, to, edge int
	size, perUnit  int64
}

var scratchPool = sync.Pool{New: func() any { return &segScratch{} }}

// segmentsTotal and segmentsSolved count the (set, segment) instances
// solveSegment planned and those of them it handed to the flow solver;
// intervalsTotal and intervalsCore count the intervals of the solved
// segments and those of them that went into the solved core network.
var segmentsTotal, segmentsSolved, intervalsTotal, intervalsCore atomic.Uint64

// RegisterMetrics exposes the segment counters in reg, refreshed at each
// collection: offline_segments_total counts every (set, segment) instance
// planned, and offline_segments_solved_total those whose capacity binds and
// which therefore ran a flow solve. Their ratio is the share of segments
// that pay for a solve. offline_intervals_total counts the intervals of the
// solved segments and offline_intervals_core_total those of them in the
// contended core; their ratio is the share of a solved segment's intervals
// the flow solve still decides.
func RegisterMetrics(reg *telemetry.Registry) {
	total := reg.Counter("offline_segments_total")
	solved := reg.Counter("offline_segments_solved_total")
	intervals := reg.Counter("offline_intervals_total")
	core := reg.Counter("offline_intervals_core_total")
	reg.OnCollect(func() {
		total.Store(segmentsTotal.Load())
		solved.Store(segmentsSolved.Load())
		intervals.Store(intervalsTotal.Load())
		core.Store(intervalsCore.Load())
	})
}

// solveSegment solves the FOO/FLACK interval-caching LP of one per-set
// segment, writes keep decisions into dec and returns the optimal flow
// cost.
//
// The LP: each interval (request i to the next request j of the same
// object) may be kept in part or in whole; at every gap k (between requests
// k and k+1) the kept intervals open across it fit in ways entries; missing
// a unit of an interval costs its perUnit. The load at gap k is the total
// size of the intervals open across it, kept or not.
//
// Only the contended core is solved. A gap is overloaded when its load
// exceeds ways. An interval with perUnit > 0 that spans no overloaded gap
// is kept whole without a solve: its kept load at every gap it spans is at
// most that gap's load, which fits, so any plan that missed part of it
// could keep it and cost less. Every other interval — one that crosses an
// overloaded gap, or one that costs nothing to miss (a VC window of 0
// micro-ops), whose outcome is a tie — is in the core. A segment whose core
// is empty keeps every interval at cost 0 without building a graph.
//
// The core network has a node per core-interval endpoint. An inner edge of
// cost 0 joins consecutive nodes p and q; its capacity is the smallest room
// the kept non-core intervals leave, ways minus their load, over gaps
// p..q-1. Overloaded gaps carry no non-core load, so the room is never
// negative. Each core interval gets an outer edge of capacity size and
// cost perUnit; its start node supplies and its end node demands size
// units. Flow on an outer edge is the part of the interval that misses, so
// a core interval is kept when its outer edge carries none. The core LP is
// the segment's LP with the non-core intervals fixed at their optimum, so
// the flow cost is the segment's optimal cost.
func solveSegment(reqs []fooRequest, ways int, model CostModel, dec *Decisions) int64 {
	segmentsTotal.Add(1)
	if len(reqs) < 2 {
		return 0
	}
	sc := scratchPool.Get().(*segScratch)
	defer scratchPool.Put(sc)
	core, k := sc.contendedCore(reqs, ways, model, dec)
	if len(core) == 0 {
		return 0
	}
	segmentsSolved.Add(1)
	intervalsTotal.Add(uint64(len(sc.intervals)))
	intervalsCore.Add(uint64(len(core)))
	node := sc.node
	g := &sc.g
	g.Reset(k, (k-1)+len(core)+k)
	for p, room := range sc.inner[:k-1] {
		g.AddEdge(p, p+1, room, 0)
	}
	for c := range core {
		iv := &core[c]
		iv.edge = g.AddEdge(int(node[iv.from]), int(node[iv.to]), iv.size, iv.perUnit)
	}
	// The network is always feasible: every outer edge can carry its own
	// supply. An error here is a programming bug.
	sv := flow.AcquireSolver()
	res, err := sv.SolveSupplies(g, sc.supply[:k])
	flow.ReleaseSolver(sv)
	if err != nil {
		panic("offline: infeasible FOO instance: " + err.Error())
	}
	for _, iv := range core {
		// Zero flow on the outer (miss) edge means the whole object
		// rode the inner edges: the interval is cached.
		if g.Flow(iv.edge) == 0 {
			dec.Keep[reqs[iv.from].pos] = true
		}
	}
	return res.Cost
}

// contendedCore prices the segment's intervals, keeps the non-core ones in
// dec and reduces the rest to the core network's inputs. It returns the
// core intervals, in request order, and the core node count k; sc.node maps
// each core endpoint's request to its node, sc.supply[:k] holds the node
// supplies and sc.inner[:k-1] the inner-edge capacities. sc.intervals keeps
// every interval of the segment, the core ones first.
func (sc *segScratch) contendedCore(reqs []fooRequest, ways int, model CostModel, dec *Decisions) (core []interval, k int) {
	m := len(reqs)
	// Price the intervals and fill the supply vector, tracking the load and
	// the overloaded gaps: supply[i] is final once request i is visited,
	// because later requests only add to later nodes. over[k] counts the
	// overloaded gaps before request k, so an interval from i to j crosses
	// over[j] - over[i] of them.
	intervals := grow(sc.intervals, m)[:0]
	sc.supply = grow(sc.supply, m)
	supply := sc.supply
	clear(supply)
	sc.load = grow(sc.load, m)
	load := sc.load
	sc.over = grow(sc.over, m+1)
	over := sc.over
	over[0] = 0
	var open int64
	for i := 0; i < m; i++ {
		if j := i + int(reqs[i].next); j > i && j < m {
			size := int64(reqs[i].size)
			var missCost int64
			switch model {
			case CostOHR:
				missCost = 1
			case CostBHR:
				missCost = size
			case CostVC:
				missCost = int64(reqs[i].cost)
			}
			// Per-unit cost of NOT caching the interval; costScale
			// keeps it integral for any size 1..8.
			perUnit := costScale * missCost / size
			intervals = append(intervals, interval{from: i, to: j, size: size, perUnit: perUnit})
			supply[i] += size
			supply[j] -= size
		}
		open += supply[i]
		load[i] = open
		over[i+1] = over[i]
		if open > int64(ways) {
			over[i+1]++
		}
	}
	sc.intervals = intervals
	// Keep the non-core intervals and move the core ones to the front,
	// marking their endpoints and gathering their supplies.
	sc.node = grow(sc.node, m)
	node := sc.node
	clear(node)
	clear(supply)
	nCore := 0
	for _, iv := range intervals {
		if iv.perUnit > 0 && over[iv.to] == over[iv.from] {
			dec.Keep[reqs[iv.from].pos] = true
			continue
		}
		intervals[nCore] = iv
		nCore++
		supply[iv.from] += iv.size
		supply[iv.to] -= iv.size
		node[iv.from], node[iv.to] = 1, 1
	}
	if nCore == 0 {
		return nil, 0
	}
	// Number the core nodes in request order, compacting their supplies to
	// the front of supply, and take each inner edge's capacity: the least
	// room over the gaps from one core node to the next. The core load
	// open across a gap is the prefix sum of the core supplies; the rest of
	// the gap's load is the kept non-core intervals'.
	sc.inner = grow(sc.inner, m)
	inner := sc.inner
	var coreOpen int64
	room := int64(math.MaxInt64)
	for i := 0; i < m; i++ {
		if node[i] != 0 {
			if k > 0 {
				inner[k-1] = room
			}
			s := supply[i]
			coreOpen += s
			supply[k] = s
			node[i] = int32(k)
			k++
			room = math.MaxInt64
		}
		room = min(room, int64(ways)-(load[i]-coreOpen))
	}
	return intervals[:nCore], k
}

// grow returns s resized to n elements, reallocating only when its capacity
// is too small. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
