package offline

import (
	"context"
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
	id   uint64
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
func segmentRequests(pt *trace.PreparedTrace, cfg uopcache.Config, foldVariants bool, segLimit int) [][]fooRequest {
	if segLimit <= 0 {
		segLimit = DefaultSegmentLimit
	}
	n := pt.Len()

	// Identity and (size, cost) per object. With folding, an object is
	// the start address and its footprint is that of its largest
	// variant (the steady-state stored window). Without folding, each
	// (start, uops) variant is a separate object — Belady/FOO's view.
	identity := func(p trace.PW) uint64 {
		if foldVariants {
			return p.Start
		}
		return p.Start ^ (uint64(p.NumUops) << 48)
	}
	// With folding, a request's footprint is the PREFIX max of its
	// variants: the cache stores the largest window seen so far (growth
	// happens on partial hits), so planning against the global max would
	// overstate early intervals' size and cost. The maxima live in a flat
	// array indexed by dense key id.
	var prefixMax []int32
	if foldVariants {
		prefixMax = make([]int32, pt.NumKeys())
	}

	// Partition requests per set. The per-set counts are known up front,
	// so the request lists are carved out of one arena instead of growing
	// by repeated append.
	perSet := make([][]fooRequest, cfg.Sets())
	counts := make([]int32, cfg.Sets())
	for i := 0; i < n; i++ {
		counts[pt.Set(i)]++
	}
	arena := make([]fooRequest, n)
	off := 0
	for s := range perSet {
		c := int(counts[s])
		perSet[s] = arena[off : off : off+c]
		off += c
	}
	for i := 0; i < n; i++ {
		p := pt.At(i)
		set := pt.Set(i)
		cost := int32(p.NumUops)
		if foldVariants {
			id := pt.KeyID(i)
			if cost > prefixMax[id] {
				prefixMax[id] = cost
			}
			cost = prefixMax[id]
		}
		size := (cost + int32(cfg.UopsPerEntry) - 1) / int32(cfg.UopsPerEntry)
		if size < 1 {
			size = 1
		}
		perSet[set] = append(perSet[set], fooRequest{
			pos: int32(i), id: identity(p), size: size, cost: cost,
		})
	}

	// Flatten the (set, segment) instances into one work list so a few
	// long sets cannot serialize the tail of the fan-out.
	nSegs := 0
	for _, reqs := range perSet {
		nSegs += (len(reqs) + segLimit - 1) / segLimit
	}
	segs := make([][]fooRequest, 0, nSegs)
	for _, reqs := range perSet {
		for off := 0; off < len(reqs); off += segLimit {
			end := off + segLimit
			if end > len(reqs) {
				end = len(reqs)
			}
			segs = append(segs, reqs[off:end])
		}
	}
	return segs
}

// segScratch is one worker's reusable segment-build state: the
// next-occurrence map and slices, the supply vector, the interval list and
// the flow graph itself. Each segment resets it instead of allocating, so a
// warm pool makes the per-segment build allocation-free.
type segScratch struct {
	next      map[uint64]int // id -> most recent earlier index
	nextOcc   []int
	supply    []int64
	intervals []interval
	g         flow.Graph
}

// interval is one outer edge: the request it starts at, its size in
// entries, the per-unit cost of missing it, and its edge id once the graph
// is built.
type interval struct {
	from, edge    int
	size, perUnit int64
}

var scratchPool = sync.Pool{New: func() any {
	return &segScratch{next: make(map[uint64]int)}
}}

// segmentsTotal and segmentsSolved count the (set, segment) instances
// solveSegment planned and those of them it handed to the flow solver;
// exposed as offline_segments_total and offline_segments_solved_total.
var segmentsTotal, segmentsSolved atomic.Uint64

// RegisterMetrics exposes the segment counters in reg, refreshed at each
// collection: offline_segments_total counts every (set, segment) instance
// planned, and offline_segments_solved_total those whose capacity binds and
// which therefore ran a flow solve. Their ratio is the share of segments
// that pay for a solve.
func RegisterMetrics(reg *telemetry.Registry) {
	total := reg.Counter("offline_segments_total")
	solved := reg.Counter("offline_segments_solved_total")
	reg.OnCollect(func() {
		total.Store(segmentsTotal.Load())
		solved.Store(segmentsSolved.Load())
	})
}

// solveSegment runs the min-cost-flow formulation on one per-set segment,
// writes keep decisions into dec and returns the flow cost.
//
// The network has a node per request, an inner edge of capacity ways and
// cost 0 between consecutive requests, and an outer edge per interval
// (request i to the next request j of the same object) of capacity size
// and per-unit cost perUnit, the cost of missing it; node i supplies and
// node j demands size units. Flow on an interval's outer edge is the part
// of it that misses, so an interval is kept when its outer edge carries
// none. The supply's prefix sum at gap k (between requests k and k+1) is
// the load: the total size of the intervals open across that gap.
//
// A segment whose capacity never binds is not solved. If the load is at
// most ways at every gap and every interval has perUnit > 0, keeping every
// interval is the unique optimum: routing every interval over the inner
// edges puts exactly the load on each inner edge, which fits, so the plan
// is feasible at cost 0; and any other feasible flow puts some units on an
// outer edge, each costing perUnit > 0, so it costs more. The solver would
// return exactly that plan, so the shortcut keeps every interval and
// returns 0 without building the graph. An interval with perUnit == 0 (a
// VC window of 0 micro-ops) costs nothing to miss, so the solver's
// tie-breaking decides it and its segment is always solved. The check is
// folded into the loop that fills the supply vector: supply[i] is final once
// request i is visited, because later requests only add to later nodes.
func solveSegment(reqs []fooRequest, ways int, model CostModel, dec *Decisions) int64 {
	segmentsTotal.Add(1)
	m := len(reqs)
	if m < 2 {
		return 0
	}
	sc := scratchPool.Get().(*segScratch)
	defer scratchPool.Put(sc)
	// Walk backward so "next occurrence" is known, counting intervals as we
	// go: together with the m-1 inner edges and at most m supply edges this
	// gives the exact arc budget, so the graph build never grows a slice.
	next := sc.next
	clear(next)
	sc.nextOcc = grow(sc.nextOcc, m)
	nextOcc := sc.nextOcc
	nIntervals := 0
	for i := m - 1; i >= 0; i-- {
		if j, ok := next[reqs[i].id]; ok {
			nextOcc[i] = j
			nIntervals++
		} else {
			nextOcc[i] = -1
		}
		next[reqs[i].id] = i
	}
	// Price the intervals, fill the supply vector and track the load.
	intervals := grow(sc.intervals, nIntervals)[:0]
	sc.supply = grow(sc.supply, m)
	supply := sc.supply
	clear(supply)
	fits := true
	var load int64
	for i := 0; i < m; i++ {
		if j := nextOcc[i]; j >= 0 {
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
			intervals = append(intervals, interval{from: i, size: size, perUnit: perUnit})
			supply[i] += size
			supply[j] -= size
			fits = fits && perUnit > 0
		}
		load += supply[i]
		fits = fits && load <= int64(ways)
	}
	sc.intervals = intervals
	if fits {
		for _, iv := range intervals {
			dec.Keep[reqs[iv.from].pos] = true
		}
		return 0
	}
	segmentsSolved.Add(1)
	g := &sc.g
	g.Reset(m, (m-1)+nIntervals+m)
	// Inner edges: consecutive requests share the set's entry capacity.
	for i := 0; i+1 < m; i++ {
		g.AddEdge(i, i+1, int64(ways), 0)
	}
	// Outer edges: one per interval, in request order.
	for k := range intervals {
		iv := &intervals[k]
		iv.edge = g.AddEdge(iv.from, nextOcc[iv.from], iv.size, iv.perUnit)
	}
	// The network is always feasible: every outer edge can carry its own
	// supply. An error here is a programming bug.
	sv := flow.AcquireSolver()
	res, err := sv.SolveSupplies(g, supply)
	flow.ReleaseSolver(sv)
	if err != nil {
		panic("offline: infeasible FOO instance: " + err.Error())
	}
	for _, iv := range intervals {
		// Zero flow on the outer (miss) edge means the whole object
		// rode the inner edges: the interval is cached.
		if g.Flow(iv.edge) == 0 {
			dec.Keep[reqs[iv.from].pos] = true
		}
	}
	return res.Cost
}

// grow returns s resized to n elements, reallocating only when its capacity
// is too small. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
