package offline

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"uopsim/internal/flow"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// refGraph is the test reference's own flow network. It stores arcs
// exactly as flow.Graph does (arc 2i forward, 2i+1 residual, per-node
// singly linked lists with the newest arc first), so its adjacency order,
// and therefore its Dijkstra tie-breaking, matches the production graph.
type refGraph struct {
	head, next, to []int
	cap, cost      []int64
}

func newRefGraph(n int) *refGraph {
	g := &refGraph{head: make([]int, n)}
	for i := range g.head {
		g.head[i] = -1
	}
	return g
}

func (g *refGraph) addEdge(u, v int, capacity, cost int64) int {
	id := len(g.to) / 2
	for _, a := range [2]struct {
		u, v int
		c, w int64
	}{{u, v, capacity, cost}, {v, u, 0, -cost}} {
		g.to = append(g.to, a.v)
		g.next = append(g.next, g.head[a.u])
		g.head[a.u] = len(g.to) - 1
		g.cap = append(g.cap, a.c)
		g.cost = append(g.cost, a.w)
	}
	return id
}

type refItem struct {
	node int
	dist int64
}

// refHeap is container/heap's binary heap; flow.Solver's hand-written heap
// must pop equal-distance entries in the same order.
type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// minCostFlow is primal-dual successive shortest paths. Every phase runs
// Dijkstra to exhaustion and updates the potentials of the reached nodes
// only, augments along the shortest path, and then along every path a
// recursive depth-first search finds over zero-reduced-cost residual arcs,
// in adjacency order, until none is left.
func (g *refGraph) minCostFlow(src, t int) (cost int64) {
	n := len(g.head)
	pot, dist, prev := make([]int64, n), make([]int64, n), make([]int, n)
	reached, done := make([]bool, n), make([]bool, n)
	for {
		clear(reached)
		clear(done)
		dist[src] = 0
		reached[src] = true
		h := &refHeap{{src, 0}}
		for h.Len() > 0 {
			u := heap.Pop(h).(refItem).node
			if done[u] {
				continue
			}
			done[u] = true
			for a := g.head[u]; a != -1; a = g.next[a] {
				v := g.to[a]
				if g.cap[a] <= 0 || done[v] {
					continue
				}
				if nd := dist[u] + g.cost[a] + pot[u] - pot[v]; !reached[v] || nd < dist[v] {
					dist[v], reached[v], prev[v] = nd, true, a
					heap.Push(h, refItem{v, nd})
				}
			}
		}
		if !done[t] {
			return cost
		}
		for i := range pot {
			if reached[i] {
				pot[i] += dist[i]
			}
		}
		for {
			push := int64(math.MaxInt64)
			for v := t; v != src; v = g.to[prev[v]^1] {
				push = min(push, g.cap[prev[v]])
			}
			for v := t; v != src; v = g.to[prev[v]^1] {
				g.cap[prev[v]] -= push
				g.cap[prev[v]^1] += push
				cost += push * g.cost[prev[v]]
			}
			clear(done)
			if !g.zeroPath(pot, prev, done, src, t) {
				break
			}
		}
	}
}

// zeroPath is a recursive depth-first search from u for a path to t over
// residual arcs whose reduced cost under pot is zero, trying u's arcs in
// adjacency order and recording the path in prev.
func (g *refGraph) zeroPath(pot []int64, prev []int, visited []bool, u, t int) bool {
	visited[u] = true
	if u == t {
		return true
	}
	for a := g.head[u]; a != -1; a = g.next[a] {
		v := g.to[a]
		if g.cap[a] > 0 && !visited[v] && g.cost[a]+pot[u]-pot[v] == 0 {
			prev[v] = a
			if g.zeroPath(pot, prev, visited, v, t) {
				return true
			}
		}
	}
	return false
}

// linkIDs sets each request's next link from a parallel list of object
// ids, as segmentRequests does from the trace: the distance to the next
// request of the same object, 0 when there is none.
func linkIDs(reqs []fooRequest, ids []uint64) []fooRequest {
	last := map[uint64]int{}
	for i := len(reqs) - 1; i >= 0; i-- {
		reqs[i].next = 0
		if j, ok := last[ids[i]]; ok {
			reqs[i].next = int32(j - i)
		}
		last[ids[i]] = i
	}
	return reqs
}

// refInterval is one interval of a segment as the references price it.
type refInterval struct {
	from, to      int
	size, perUnit int64
}

// refIntervals lists a segment's intervals in request order: request i to
// the request its link names, when that lies inside the segment.
func refIntervals(reqs []fooRequest, model CostModel) []refInterval {
	var out []refInterval
	for i, r := range reqs {
		j := i + int(r.next)
		if r.next == 0 || j >= len(reqs) {
			continue
		}
		size := int64(r.size)
		miss := [...]int64{CostOHR: 1, CostBHR: size, CostVC: int64(r.cost)}[model]
		out = append(out, refInterval{i, j, size, costScale * miss / size})
	}
	return out
}

// refGapLoads returns the total size of the given intervals open across
// each gap k (between requests k and k+1) of an m-request segment.
func refGapLoads(ivs []refInterval, m int) []int64 {
	load := make([]int64, max(m-1, 0))
	for _, iv := range ivs {
		for gap := iv.from; gap < iv.to; gap++ {
			load[gap] += iv.size
		}
	}
	return load
}

// refSupplySegment is the supply-form FOO network, the construction the
// solver used before it solved only the contended core: a node per
// request, an inner edge of capacity ways between consecutive requests, an
// outer edge per interval, then the super source and sink edges, solved by
// refGraph.minCostFlow. It solves the same LP as solveSegment over a
// different network, so its flow cost must match while its keep-set may
// settle ties otherwise. It returns the trace positions the plan keeps and
// the flow cost.
func refSupplySegment(reqs []fooRequest, ways int, model CostModel) (keep []int32, cost int64) {
	m := len(reqs)
	ivs := refIntervals(reqs, model)
	if len(ivs) == 0 {
		return nil, 0
	}
	g := newRefGraph(m + 2)
	for i := 0; i+1 < m; i++ {
		g.addEdge(i, i+1, int64(ways), 0)
	}
	supply := make([]int64, m)
	edges := make([]int, len(ivs))
	for k, iv := range ivs {
		edges[k] = g.addEdge(iv.from, iv.to, iv.size, iv.perUnit)
		supply[iv.from] += iv.size
		supply[iv.to] -= iv.size
	}
	cost = g.solveSupplies(supply)
	for k, iv := range ivs {
		if g.cap[2*edges[k]+1] == 0 {
			keep = append(keep, reqs[iv.from].pos)
		}
	}
	return keep, cost
}

// solveSupplies attaches a super source and sink to g's last two nodes for
// supply, in node order as flow.Graph.attachSupplies does, and returns the
// min-cost flow's cost.
func (g *refGraph) solveSupplies(supply []int64) int64 {
	src, t := len(supply), len(supply)+1
	for i, s := range supply {
		if s > 0 {
			g.addEdge(src, i, s, 0)
		} else if s < 0 {
			g.addEdge(i, t, -s, 0)
		}
	}
	return g.minCostFlow(src, t)
}

// refSolveSegment is the reference for solveSegment, built from the
// definition of the contended core rather than from solveSegment's
// prefix sums: gap loads by summing every interval over its span, the
// core by scanning each interval's gaps for an overloaded one, the nodes
// as the sorted core endpoints and each inner edge's capacity by scanning
// its gaps for the least room the non-core intervals leave. The edges go
// in solveSegment's order (inner, outer, then the super source and sink),
// so refGraph.minCostFlow settles ties as the production solver does. It
// returns the trace positions the plan keeps, the flow cost, and the core
// interval count (0 when the segment takes the shortcut).
func refSolveSegment(reqs []fooRequest, ways int, model CostModel) (keep []int32, cost int64, nCore int) {
	m := len(reqs)
	ivs := refIntervals(reqs, model)
	load := refGapLoads(ivs, m)
	var core, rest []refInterval
	for _, iv := range ivs {
		overloaded := false
		for gap := iv.from; gap < iv.to; gap++ {
			overloaded = overloaded || load[gap] > int64(ways)
		}
		if overloaded || iv.perUnit == 0 {
			core = append(core, iv)
		} else {
			rest = append(rest, iv)
			keep = append(keep, reqs[iv.from].pos)
		}
	}
	if len(core) == 0 {
		return keep, 0, 0
	}
	var ends []int
	for _, iv := range core {
		ends = append(ends, iv.from, iv.to)
	}
	slices.Sort(ends)
	ends = slices.Compact(ends)
	nodeOf := map[int]int{}
	for k, e := range ends {
		nodeOf[e] = k
	}
	restLoad := refGapLoads(rest, m)
	g := newRefGraph(len(ends) + 2)
	for k := 0; k+1 < len(ends); k++ {
		room := int64(math.MaxInt64)
		for gap := ends[k]; gap < ends[k+1]; gap++ {
			room = min(room, int64(ways)-restLoad[gap])
		}
		g.addEdge(k, k+1, room, 0)
	}
	supply := make([]int64, len(ends))
	edges := make([]int, len(core))
	for k, iv := range core {
		edges[k] = g.addEdge(nodeOf[iv.from], nodeOf[iv.to], iv.size, iv.perUnit)
		supply[nodeOf[iv.from]] += iv.size
		supply[nodeOf[iv.to]] -= iv.size
	}
	cost = g.solveSupplies(supply)
	for k, iv := range core {
		if g.cap[2*edges[k]+1] == 0 {
			keep = append(keep, reqs[iv.from].pos)
		}
	}
	return keep, cost, len(core)
}

// keptLoadFits reports whether the intervals a plan keeps fit the set:
// at every gap of the segment their total size is at most ways.
func keptLoadFits(reqs []fooRequest, ways int, keep []bool) bool {
	var kept []refInterval
	for _, iv := range refIntervals(reqs, CostOHR) {
		if keep[reqs[iv.from].pos] {
			kept = append(kept, iv)
		}
	}
	for _, l := range refGapLoads(kept, len(reqs)) {
		if l > int64(ways) {
			return false
		}
	}
	return true
}

// TestKeepPlansMatchReferenceOnWorkloadTraces solves the workload traces of
// every application with the production solver and with the references,
// under the three cost models, with and without variant folding, at 4, 8
// and 16 ways. For every segment:
//   - each request's link names its object's next request, checked
//     against a map of (start, micro-ops) or start identities;
//   - the keep-set matches refSolveSegment's exactly, and the flow cost
//     matches both refSolveSegment's and the supply form's
//     (refSupplySegment), which solves the same LP over another network;
//   - the kept intervals fit the set at every gap.
//
// The comparison must cover both of solveSegment's paths at every way
// count: segments whose core is empty, which keep every interval without a
// flow solve, and segments with a contended core. The test logs, per
// application and plan kind, how many keep decisions differ from the
// supply form's: the ties the two networks settle differently.
//
// Real traces matter here: their loops produce many equal-cost shortest
// paths, so they exercise the tie-breaking that decides a keep plan. A
// heap that orders equal distances differently passes a differential over
// uniformly random instances but fails this test.
func TestKeepPlansMatchReferenceOnWorkloadTraces(t *testing.T) {
	// The test is serial, so a race-detector run gains nothing from the
	// full trace length.
	blocks := 5000
	if testing.Short() || raceEnabled {
		blocks = 1500
	}
	waysList := []int{4, 8, 16}
	paths := map[int]*struct{ uncontended, contended int }{}
	for _, ways := range waysList {
		paths[ways] = &struct{ uncontended, contended int }{}
	}
	var moved, decisions int
	for _, app := range workload.Names() {
		spec, err := workload.Get(app)
		if err != nil {
			t.Fatal(err)
		}
		pws := trace.FormPWs(workload.GenerateSpec(spec, blocks, 0), 0)
		var row []string
		for _, model := range []CostModel{CostOHR, CostBHR, CostVC} {
			for _, fold := range []bool{false, true} {
				kindMoved := 0
				for _, ways := range waysList {
					cfg := uopcache.Config{Entries: 512, Ways: ways, UopsPerEntry: 8}
					pt := uopcache.Prepare(cfg, pws)
					name := fmt.Sprintf("%s/ways=%d/%v/fold=%v", app, ways, model, fold)
					dec := &Decisions{Keep: make([]bool, pt.Len())}
					segs := segmentRequests(pt, cfg, fold, 0)
					checkLinks(t, name, pt, segs, fold)
					for k, seg := range segs {
						solved0 := segmentsSolved.Load()
						cost := solveSegment(seg, ways, model, dec)
						keep, refCost, nCore := refSolveSegment(seg, ways, model)
						supplyKeep, supplyCost := refSupplySegment(seg, ways, model)
						switch {
						case segmentsSolved.Load() != solved0:
							paths[ways].contended++
						case len(keep) > 0:
							paths[ways].uncontended++
						}
						if solved := segmentsSolved.Load() != solved0; solved != (nCore > 0) {
							t.Fatalf("%s segment %d: solved %v, reference core of %d intervals", name, k, solved, nCore)
						}
						if cost != refCost || cost != supplyCost {
							t.Fatalf("%s segment %d: cost %d, core reference %d, supply form %d", name, k, cost, refCost, supplyCost)
						}
						want, supply := map[int32]bool{}, map[int32]bool{}
						for _, p := range keep {
							want[p] = true
						}
						for _, p := range supplyKeep {
							supply[p] = true
						}
						for _, r := range seg {
							if dec.Keep[r.pos] != want[r.pos] {
								t.Fatalf("%s segment %d: Keep[%d] = %v, reference %v",
									name, k, r.pos, dec.Keep[r.pos], want[r.pos])
							}
							if dec.Keep[r.pos] != supply[r.pos] {
								kindMoved++
							}
						}
						decisions += len(refIntervals(seg, model))
						if !keptLoadFits(seg, ways, dec.Keep) {
							t.Fatalf("%s segment %d: kept intervals exceed %d ways", name, k, ways)
						}
					}
				}
				moved += kindMoved
				row = append(row, fmt.Sprintf("%v/fold=%v %d", model, fold, kindMoved))
			}
		}
		t.Logf("%s: keep decisions unlike the supply form's: %s", app, strings.Join(row, ", "))
	}
	t.Logf("%d of %d interval decisions differ from the supply form's", moved, decisions)
	for _, ways := range waysList {
		p := paths[ways]
		t.Logf("ways=%d: %d uncontended segments kept whole, %d solved", ways, p.uncontended, p.contended)
		if p.uncontended == 0 || p.contended == 0 {
			t.Errorf("ways=%d: %d uncontended and %d contended segments; the reference must cover both paths",
				ways, p.uncontended, p.contended)
		}
	}
}

// checkLinks requires every request of a plan's segments to link to the
// next request of its object in its set, or to none when there is no
// such request: objects are start addresses when fold is set and (start,
// micro-ops) variants otherwise. A set's segments are consecutive in segs,
// so their concatenation is the set's request list the links count in.
func checkLinks(t *testing.T, name string, pt *trace.PreparedTrace, segs [][]fooRequest, fold bool) {
	t.Helper()
	type object struct {
		start uint64
		uops  uint16
	}
	check := func(reqs []fooRequest) {
		last := map[object]int{}
		for i := len(reqs) - 1; i >= 0; i-- {
			p := pt.At(int(reqs[i].pos))
			o := object{p.Start, p.NumUops}
			if fold {
				o.uops = 0
			}
			want := 0
			if j, ok := last[o]; ok {
				want = j - i
			}
			last[o] = i
			if got := int(reqs[i].next); got != want {
				t.Fatalf("%s: set %d request %d links %d ahead, its object's next request is %d ahead (0 = none)",
					name, pt.Set(int(reqs[i].pos)), i, got, want)
			}
		}
	}
	var set []fooRequest
	for k, seg := range segs {
		if k > 0 && pt.Set(int(seg[0].pos)) != pt.Set(int(segs[k-1][0].pos)) {
			check(set)
			set = set[:0]
		}
		set = append(set, seg...)
	}
	check(set)
}

// TestSolveSegmentSkipsUncontendedSegments: a segment whose intervals fit
// the set at every gap, each with a positive miss cost, keeps every
// interval without touching the flow solver; a segment whose load exceeds
// the ways at one gap, or one with an interval that costs nothing to miss,
// is solved. Every case matches the reference solve.
func TestSolveSegmentSkipsUncontendedSegments(t *testing.T) {
	reg := telemetry.NewRegistry()
	flow.RegisterMetrics(reg)
	counters := []*telemetry.Counter{
		reg.Counter("flow_solver_reuse_total"), reg.Counter("flow_solver_fresh_total"),
		reg.Counter("flow_phases_total"), reg.Counter("flow_augmentations_total"), reg.Counter("flow_settled_total"),
	}
	flowWork := func() (sum uint64) {
		reg.Collect()
		for _, c := range counters {
			sum += c.Value()
		}
		return sum
	}
	// req builds request i of object id with a size in entries and a
	// micro-op count; seg links a case's requests into a segment.
	type idReq struct {
		id  uint64
		req fooRequest
	}
	req := func(i int, id uint64, size, cost int32) idReq {
		return idReq{id, fooRequest{pos: int32(i), size: size, cost: cost}}
	}
	seg := func(irs []idReq) []fooRequest {
		reqs, ids := make([]fooRequest, len(irs)), make([]uint64, len(irs))
		for i, ir := range irs {
			reqs[i], ids[i] = ir.req, ir.id
		}
		return linkIDs(reqs, ids)
	}
	for _, tc := range []struct {
		name   string
		ways   int
		model  CostModel
		reqs   []idReq
		solved bool
	}{
		// A opens over gaps 0-1, B over gaps 1-2: two entries at gap 1.
		{"load equals ways", 2, CostOHR,
			[]idReq{req(0, 'A', 1, 6), req(1, 'B', 1, 6), req(2, 'A', 1, 6), req(3, 'B', 1, 6)}, false},
		{"sized load equals ways", 8, CostVC,
			[]idReq{req(0, 'A', 5, 40), req(1, 'B', 3, 20), req(2, 'A', 5, 40), req(3, 'B', 3, 20)}, false},
		{"load one over ways", 1, CostOHR,
			[]idReq{req(0, 'A', 1, 6), req(1, 'B', 1, 6), req(2, 'A', 1, 6), req(3, 'B', 1, 6)}, true},
		{"sized load one over ways", 8, CostBHR,
			[]idReq{req(0, 'A', 5, 40), req(1, 'B', 4, 30), req(2, 'A', 5, 40), req(3, 'B', 4, 30)}, true},
		// B's window has no micro-ops, so missing it costs 0 under VC.
		{"zero-cost interval", 2, CostVC,
			[]idReq{req(0, 'A', 1, 6), req(1, 'B', 1, 0), req(2, 'A', 1, 6), req(3, 'B', 1, 0)}, true},
	} {
		reqs := seg(tc.reqs)
		solved0, work0 := segmentsSolved.Load(), flowWork()
		dec := &Decisions{Keep: make([]bool, len(reqs))}
		cost := solveSegment(reqs, tc.ways, tc.model, dec)
		solved, work := segmentsSolved.Load() != solved0, flowWork() != work0
		if solved != tc.solved || work != tc.solved {
			t.Errorf("%s: solved %v, flow counters moved %v; want %v", tc.name, solved, work, tc.solved)
		}
		keep, refCost, _ := refSolveSegment(reqs, tc.ways, tc.model)
		want := make([]bool, len(reqs))
		for _, p := range keep {
			want[p] = true
		}
		if cost != refCost || !slices.Equal(dec.Keep, want) {
			t.Errorf("%s: cost %d keep %v, reference %d %v", tc.name, cost, dec.Keep, refCost, want)
		}
		if !tc.solved && (cost != 0 || !dec.Keep[0] || !dec.Keep[1]) {
			t.Errorf("%s: uncontended segment kept %v at cost %d, want both intervals at 0", tc.name, dec.Keep, cost)
		}
	}
}

// TestContendedCoreConstruction builds the core network of hand-made
// segments and checks it against values worked out by hand: which
// intervals go into the core and which are kept without a solve, the core
// node count and each inner edge's capacity. solveSegment must then solve
// exactly the segments with a core, count their intervals, and match both
// references' flow cost.
func TestContendedCoreConstruction(t *testing.T) {
	type req struct {
		id         byte
		size, cost int32
	}
	build := func(rs []req) []fooRequest {
		reqs, ids := make([]fooRequest, len(rs)), make([]uint64, len(rs))
		for i, r := range rs {
			reqs[i], ids[i] = fooRequest{pos: int32(i), size: r.size, cost: r.cost}, uint64(r.id)
		}
		return linkIDs(reqs, ids)
	}
	for _, tc := range []struct {
		name  string
		ways  int
		model CostModel
		reqs  []req
		// core lists the start requests of the core intervals, kept those
		// of the intervals kept without a solve; nodes is the core node
		// count and inner the inner-edge capacities in node order.
		core, kept []int
		nodes      int
		inner      []int64
	}{
		// N opens over gaps 0-2 and shares gaps 1 and 2 with A and B; C
		// makes gap 4 overloaded (A, B and C: 4 entries in 3 ways). N ends
		// beside it and fits wherever it is open, so it is kept; A, B and
		// C cross gap 4. Nodes are requests 1, 2, 4, 5, 6, 7; N leaves
		// room 2 at gaps 1 and 2.
		{"non-core beside an overloaded gap", 3, CostOHR,
			[]req{{'N', 1, 8}, {'A', 1, 8}, {'B', 1, 8}, {'N', 1, 8}, {'C', 2, 16}, {'A', 1, 8}, {'B', 1, 8}, {'C', 2, 16}},
			[]int{1, 2, 4}, []int{0}, 6, []int64{2, 2, 3, 3, 3}},
		// W and X overload gap 1. N, kept, fills gap 3 to 3 of 3 with X:
		// the inner edge from node 2 to node 5 spans gaps 2-4, whose room
		// is 3, 2 and 3, so its capacity is 2, the middle gap's.
		{"inner edge takes the least room over its gaps", 3, CostVC,
			[]req{{'W', 2, 10}, {'X', 2, 16}, {'W', 2, 10}, {'N', 1, 8}, {'N', 1, 8}, {'X', 2, 16}},
			[]int{0, 1}, []int{3}, 4, []int64{3, 3, 2}},
		// No gap is overloaded, but Z's window has no micro-ops, so missing
		// it costs 0 under VC: it stays in the core while A is kept. The
		// one inner edge spans gaps 1 (A leaves room 1) and 2 (room 2).
		{"zero-cost interval stays in the core", 2, CostVC,
			[]req{{'A', 1, 6}, {'Z', 1, 0}, {'A', 1, 6}, {'Z', 1, 0}},
			[]int{1}, []int{0}, 2, []int64{1}},
		// Load equals ways at gap 1: the core is empty and every interval
		// is kept without a graph.
		{"empty core takes the shortcut", 2, CostOHR,
			[]req{{'A', 1, 6}, {'B', 1, 6}, {'A', 1, 6}, {'B', 1, 6}},
			nil, []int{0, 1}, 0, nil},
	} {
		reqs := build(tc.reqs)
		sc := &segScratch{}
		dec := &Decisions{Keep: make([]bool, len(reqs))}
		core, k := sc.contendedCore(reqs, tc.ways, tc.model, dec)
		var starts []int
		for _, iv := range core {
			starts = append(starts, iv.from)
		}
		var kept []int
		for i, keep := range dec.Keep {
			if keep {
				kept = append(kept, i)
			}
		}
		var inner []int64
		if k > 0 {
			inner = sc.inner[:k-1]
		}
		if !slices.Equal(starts, tc.core) || !slices.Equal(kept, tc.kept) || k != tc.nodes || !slices.Equal(inner, tc.inner) {
			t.Errorf("%s: core %v, kept %v, %d nodes, inner %v; want %v, %v, %d, %v",
				tc.name, starts, kept, k, inner, tc.core, tc.kept, tc.nodes, tc.inner)
		}

		solved0, total0, core0 := segmentsSolved.Load(), intervalsTotal.Load(), intervalsCore.Load()
		dec = &Decisions{Keep: make([]bool, len(reqs))}
		cost := solveSegment(reqs, tc.ways, tc.model, dec)
		solved := segmentsSolved.Load() - solved0
		total, nCore := intervalsTotal.Load()-total0, intervalsCore.Load()-core0
		wantSolved, wantTotal := uint64(0), uint64(0)
		if len(tc.core) > 0 {
			wantSolved, wantTotal = 1, uint64(len(tc.core)+len(tc.kept))
		}
		if solved != wantSolved || total != wantTotal || nCore != uint64(len(tc.core)) {
			t.Errorf("%s: %d solved, %d intervals, %d in the core; want %d, %d, %d",
				tc.name, solved, total, nCore, wantSolved, wantTotal, len(tc.core))
		}
		_, refCost, _ := refSolveSegment(reqs, tc.ways, tc.model)
		_, supplyCost := refSupplySegment(reqs, tc.ways, tc.model)
		if cost != refCost || cost != supplyCost {
			t.Errorf("%s: cost %d, core reference %d, supply form %d", tc.name, cost, refCost, supplyCost)
		}
		for _, i := range tc.kept {
			if !dec.Keep[i] {
				t.Errorf("%s: solveSegment did not keep the non-core interval at %d", tc.name, i)
			}
		}
	}
}

// tinyInterval is one interval of a tiny segment: the requests it spans,
// its size and the cost of missing it.
type tinyInterval struct {
	from, to int
	size     int
	missCost int64
}

// tinyIntervals lists a segment's intervals with their miss costs as the
// flow formulation prices them.
func tinyIntervals(reqs []fooRequest, model CostModel) []tinyInterval {
	var out []tinyInterval
	for i, r := range reqs {
		if r.next == 0 {
			continue
		}
		size := int64(r.size)
		miss := [...]int64{CostOHR: 1, CostBHR: size, CostVC: int64(r.cost)}[model]
		out = append(out, tinyInterval{i, i + int(r.next), int(size), costScale * miss / size * size})
	}
	return out
}

// keepSetCost checks a keep-set (bit k keeps interval k) against the set's
// capacity — at every gap between consecutive requests the kept intervals
// spanning it fit in ways entries — and returns the cost of the intervals
// it misses.
func keepSetCost(ivs []tinyInterval, m, ways int, mask uint) (cost int64, feasible bool) {
	for gap := 0; gap+1 < m; gap++ {
		load := 0
		for k, iv := range ivs {
			if mask&(1<<k) != 0 && iv.from <= gap && gap < iv.to {
				load += iv.size
			}
		}
		if load > ways {
			return 0, false
		}
	}
	for k, iv := range ivs {
		if mask&(1<<k) == 0 {
			cost += iv.missCost
		}
	}
	return cost, true
}

// TestSolveSegmentOptimalOnTinySegments enumerates every capacity-feasible
// keep-set of random segments of at most 12 requests. With unit sizes the
// flow is integral, so the solver's keep-set must reach the optimum exactly.
// With sizes up to 8 the flow may split an interval: its keep-set must still
// fit the set, and its flow cost is a lower bound on the optimum.
func TestSolveSegmentOptimalOnTinySegments(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 3000; iter++ {
		unit := iter%2 == 0
		m := 2 + rng.Intn(11)
		ways := 1 + rng.Intn(4)
		loop := 1 + rng.Intn(5)
		model := CostModel(rng.Intn(3))
		if unit {
			model = CostOHR
		}
		reqs, ids := make([]fooRequest, m), make([]uint64, m)
		for i := range reqs {
			id := uint64(i % loop)
			if rng.Intn(4) == 0 {
				id = uint64(10 + rng.Intn(3))
			}
			size := int32(1)
			if !unit {
				size = 1 + int32(rng.Intn(8))
			}
			reqs[i], ids[i] = fooRequest{pos: int32(i), size: size, cost: size*8 - int32(rng.Intn(8))}, id
		}
		linkIDs(reqs, ids)
		ivs := tinyIntervals(reqs, model)
		best := int64(-1)
		for mask := uint(0); mask < 1<<len(ivs); mask++ {
			if c, ok := keepSetCost(ivs, m, ways, mask); ok && (best < 0 || c < best) {
				best = c
			}
		}
		dec := &Decisions{Keep: make([]bool, m)}
		flowCost := solveSegment(reqs, ways, model, dec)
		var kept uint
		for k, iv := range ivs {
			if dec.Keep[iv.from] {
				kept |= 1 << k
			}
		}
		keptCost, feasible := keepSetCost(ivs, m, ways, kept)
		switch {
		case !feasible:
			t.Fatalf("iter %d (%d ways, reqs %+v): keep-set %b (%d intervals) exceeds capacity",
				iter, ways, reqs, kept, bits.OnesCount(kept))
		case unit && (keptCost != best || flowCost != best):
			t.Fatalf("iter %d (%d ways, reqs %+v): keep-set cost %d, flow cost %d, optimum %d",
				iter, ways, reqs, keptCost, flowCost, best)
		case flowCost > best:
			t.Fatalf("iter %d (%v, %d ways, reqs %+v): flow cost %d above the optimum %d",
				iter, model, ways, reqs, flowCost, best)
		}
	}
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestComputeDecisionsAllocsFixed: with a warm scratch and solver pool a
// solve allocates its plan and request partition and nothing per segment,
// so doubling the segment count leaves the allocation count unchanged. The
// fixed allocations are the plan and its Keep slice, the per-key fold
// maxima and links, the per-set bounds, the request arena, the segment list
// and the fan-out closures.
// The collector is off during the count: a collection empties the pools
// (flow.solverPool and scratchPool), and every solve after it would
// allocate fresh scratch. The last case is kafka's 20,000-block trace at
// the default geometry, the FLACK solve of BenchmarkFLACKSolve.
func TestComputeDecisionsAllocsFixed(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	cfg := uopcache.Config{Entries: 256, Ways: 4, UopsPerEntry: 8}
	rng := rand.New(rand.NewSource(3))
	var s []trace.PW
	for i := 0; i < 16000; i++ {
		s = append(s, pw(uint64(0x1000+(i%300+rng.Intn(3))*16), 1+rng.Intn(24)))
	}
	synthetic := uopcache.Prepare(cfg, s)
	spec, err := workload.Get("kafka")
	if err != nil {
		t.Fatal(err)
	}
	def := uopcache.DefaultConfig()
	kafka := uopcache.Prepare(def, trace.FormPWs(workload.GenerateSpec(spec, 20000, 0), 0))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name     string
		pt       *trace.PreparedTrace
		cfg      uopcache.Config
		segLimit int
		want     float64
	}{
		{"synthetic/segLimit=64", synthetic, cfg, 64, 9},
		{"synthetic/segLimit=32", synthetic, cfg, 32, 9},
		{"kafka", kafka, def, 0, 9},
	} {
		if tc.segLimit != 0 {
			if n := len(segmentRequests(tc.pt, tc.cfg, true, tc.segLimit)); n < 200 {
				t.Fatalf("%s: only %d segments", tc.name, n)
			}
		}
		got := testing.AllocsPerRun(10, func() {
			ComputeDecisionsPrepared(nil, tc.pt, tc.cfg, CostVC, true, tc.segLimit, 1)
		})
		if got != tc.want {
			t.Errorf("%s: %.0f allocations per solve, want %.0f", tc.name, got, tc.want)
		}
	}
}

// BenchmarkSolveWorkloads solves keep plans serially and reports the solve
// cost per lookup (ns/lookup), the share of (set, segment) instances that
// ran a flow solve (solved/segment) and the Dijkstra nodes settled per
// phase (settled/phase). The all/blocks=5000 case solves the FOO (OHR) and
// FLACK (VC, fold) plans of every application's 5,000-block trace at the
// default 512×8 geometry; the blocks=80000 cases solve the FLACK plan of
// kafka and clang at the committed results' scale, at the default geometry
// and at fig16's 256×16 (long segments) and 2048×16 (short ones).
func BenchmarkSolveWorkloads(b *testing.B) {
	prepare := func(b *testing.B, cfg uopcache.Config, app string, blocks int) *trace.PreparedTrace {
		spec, err := workload.Get(app)
		if err != nil {
			b.Fatal(err)
		}
		return uopcache.Prepare(cfg, trace.FormPWs(workload.GenerateSpec(spec, blocks, 0), 0))
	}
	def := uopcache.DefaultConfig()
	b.Run("all/blocks=5000", func(b *testing.B) {
		var pts []*trace.PreparedTrace
		for _, app := range workload.Names() {
			pts = append(pts, prepare(b, def, app, 5000))
		}
		benchSolve(b, pts, func(pt *trace.PreparedTrace) int {
			ComputeDecisionsPrepared(nil, pt, def, CostOHR, false, 0, 1)
			ComputeDecisionsPrepared(nil, pt, def, CostVC, true, 0, 1)
			return 2 * pt.Len()
		})
	})
	for _, app := range []string{"kafka", "clang"} {
		for _, geom := range []struct {
			name string
			cfg  uopcache.Config
		}{
			{"", def},
			{"/256x16", uopcache.Config{Entries: 256, Ways: 16, UopsPerEntry: def.UopsPerEntry}},
			{"/2048x16", uopcache.Config{Entries: 2048, Ways: 16, UopsPerEntry: def.UopsPerEntry}},
		} {
			cfg := geom.cfg
			b.Run(app+"/blocks=80000"+geom.name+"/flack", func(b *testing.B) {
				pt := prepare(b, cfg, app, 80000)
				benchSolve(b, []*trace.PreparedTrace{pt}, func(pt *trace.PreparedTrace) int {
					ComputeDecisionsPrepared(nil, pt, cfg, CostVC, true, 0, 1)
					return pt.Len()
				})
			})
		}
	}
}

// benchSolve times solve over pts, which returns the lookups it solved, and
// reports ns/lookup, solved/segment from the offline segment counters and
// settled/phase from the flow work counters (0 when no segment ran a
// phase).
func benchSolve(b *testing.B, pts []*trace.PreparedTrace, solve func(*trace.PreparedTrace) int) {
	reg := telemetry.NewRegistry()
	flow.RegisterMetrics(reg)
	RegisterMetrics(reg)
	counters := []*telemetry.Counter{
		reg.Counter("offline_segments_total"), reg.Counter("offline_segments_solved_total"),
		reg.Counter("flow_phases_total"), reg.Counter("flow_settled_total"),
	}
	reg.Collect()
	start := make([]uint64, len(counters))
	for i, c := range counters {
		start[i] = c.Value()
	}
	lookups := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range pts {
			lookups += solve(pt)
		}
	}
	b.StopTimer()
	reg.Collect()
	delta := func(i int) float64 { return float64(counters[i].Value() - start[i]) }
	segments, solved, phases, settled := delta(0), delta(1), delta(2), delta(3)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lookups), "ns/lookup")
	b.ReportMetric(solved/segments, "solved/segment")
	perPhase := 0.0
	if phases > 0 {
		perPhase = settled / phases
	}
	b.ReportMetric(perPhase, "settled/phase")
}
