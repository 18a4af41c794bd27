package offline

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime/debug"
	"slices"
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

// refSolveSegment is the reference for solveSegment: the same FOO network,
// built edge for edge in the same order (inner edges, outer edges, then the
// super source and sink edges), solved by refGraph.minCostFlow. It returns
// the trace positions the plan keeps and the flow cost.
func refSolveSegment(reqs []fooRequest, ways int, model CostModel) (keep []int32, cost int64) {
	m := len(reqs)
	if m < 2 {
		return nil, 0
	}
	nextOcc := make([]int, m)
	last := map[uint64]int{}
	for i := m - 1; i >= 0; i-- {
		nextOcc[i] = -1
		if j, ok := last[reqs[i].id]; ok {
			nextOcc[i] = j
		}
		last[reqs[i].id] = i
	}
	g := newRefGraph(m + 2)
	for i := 0; i+1 < m; i++ {
		g.addEdge(i, i+1, int64(ways), 0)
	}
	supply := make([]int64, m)
	type outer struct{ edge, from int }
	var outers []outer
	for i, j := range nextOcc {
		if j < 0 {
			continue
		}
		size := int64(reqs[i].size)
		miss := [...]int64{CostOHR: 1, CostBHR: size, CostVC: int64(reqs[i].cost)}[model]
		outers = append(outers, outer{g.addEdge(i, j, size, costScale*miss/size), i})
		supply[i] += size
		supply[j] -= size
	}
	if len(outers) == 0 {
		return nil, 0
	}
	src, t := m, m+1
	for i, s := range supply {
		if s > 0 {
			g.addEdge(src, i, s, 0)
		} else if s < 0 {
			g.addEdge(i, t, -s, 0)
		}
	}
	cost = g.minCostFlow(src, t)
	for _, o := range outers {
		if g.cap[2*o.edge+1] == 0 {
			keep = append(keep, reqs[o.from].pos)
		}
	}
	return keep, cost
}

// TestKeepPlansMatchReferenceOnWorkloadTraces solves the workload traces of
// every application with the production solver and with the primal-dual
// full-Dijkstra reference, under the three cost models, with and without
// variant folding, at 4, 8 and 16 ways. Every segment's keep-set and flow
// cost must match. The comparison must cover both of solveSegment's paths
// at every way count: segments whose intervals all fit, which keep them all
// without a flow solve, and segments whose capacity binds.
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
	for _, app := range workload.Names() {
		spec, err := workload.Get(app)
		if err != nil {
			t.Fatal(err)
		}
		pws := trace.FormPWs(workload.GenerateSpec(spec, blocks, 0), 0)
		for _, ways := range waysList {
			cfg := uopcache.Config{Entries: 512, Ways: ways, UopsPerEntry: 8}
			pt := uopcache.Prepare(cfg, pws)
			for _, model := range []CostModel{CostOHR, CostBHR, CostVC} {
				for _, fold := range []bool{false, true} {
					name := fmt.Sprintf("%s/ways=%d/%v/fold=%v", app, ways, model, fold)
					dec := &Decisions{Keep: make([]bool, pt.Len())}
					for k, seg := range segmentRequests(pt, cfg, fold, 0) {
						solved0 := segmentsSolved.Load()
						cost := solveSegment(seg, ways, model, dec)
						keep, refCost := refSolveSegment(seg, ways, model)
						switch {
						case segmentsSolved.Load() != solved0:
							paths[ways].contended++
						case len(keep) > 0:
							paths[ways].uncontended++
						}
						if cost != refCost {
							t.Fatalf("%s segment %d: cost %d, reference %d", name, k, cost, refCost)
						}
						want := map[int32]bool{}
						for _, p := range keep {
							want[p] = true
						}
						for _, r := range seg {
							if dec.Keep[r.pos] != want[r.pos] {
								t.Fatalf("%s segment %d: Keep[%d] = %v, reference %v",
									name, k, r.pos, dec.Keep[r.pos], want[r.pos])
							}
						}
					}
				}
			}
		}
	}
	for _, ways := range waysList {
		p := paths[ways]
		t.Logf("ways=%d: %d uncontended segments kept whole, %d solved", ways, p.uncontended, p.contended)
		if p.uncontended == 0 || p.contended == 0 {
			t.Errorf("ways=%d: %d uncontended and %d contended segments; the reference must cover both paths",
				ways, p.uncontended, p.contended)
		}
	}
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
	// micro-op count.
	req := func(i int, id uint64, size, cost int32) fooRequest {
		return fooRequest{pos: int32(i), id: id, size: size, cost: cost}
	}
	for _, tc := range []struct {
		name   string
		ways   int
		model  CostModel
		reqs   []fooRequest
		solved bool
	}{
		// A opens over gaps 0-1, B over gaps 1-2: two entries at gap 1.
		{"load equals ways", 2, CostOHR,
			[]fooRequest{req(0, 'A', 1, 6), req(1, 'B', 1, 6), req(2, 'A', 1, 6), req(3, 'B', 1, 6)}, false},
		{"sized load equals ways", 8, CostVC,
			[]fooRequest{req(0, 'A', 5, 40), req(1, 'B', 3, 20), req(2, 'A', 5, 40), req(3, 'B', 3, 20)}, false},
		{"load one over ways", 1, CostOHR,
			[]fooRequest{req(0, 'A', 1, 6), req(1, 'B', 1, 6), req(2, 'A', 1, 6), req(3, 'B', 1, 6)}, true},
		{"sized load one over ways", 8, CostBHR,
			[]fooRequest{req(0, 'A', 5, 40), req(1, 'B', 4, 30), req(2, 'A', 5, 40), req(3, 'B', 4, 30)}, true},
		// B's window has no micro-ops, so missing it costs 0 under VC.
		{"zero-cost interval", 2, CostVC,
			[]fooRequest{req(0, 'A', 1, 6), req(1, 'B', 1, 0), req(2, 'A', 1, 6), req(3, 'B', 1, 0)}, true},
	} {
		solved0, work0 := segmentsSolved.Load(), flowWork()
		dec := &Decisions{Keep: make([]bool, len(tc.reqs))}
		cost := solveSegment(tc.reqs, tc.ways, tc.model, dec)
		solved, work := segmentsSolved.Load() != solved0, flowWork() != work0
		if solved != tc.solved || work != tc.solved {
			t.Errorf("%s: solved %v, flow counters moved %v; want %v", tc.name, solved, work, tc.solved)
		}
		keep, refCost := refSolveSegment(tc.reqs, tc.ways, tc.model)
		want := make([]bool, len(tc.reqs))
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
	for i := range reqs {
		for j := i + 1; j < len(reqs); j++ {
			if reqs[j].id != reqs[i].id {
				continue
			}
			size := int64(reqs[i].size)
			miss := [...]int64{CostOHR: 1, CostBHR: size, CostVC: int64(reqs[i].cost)}[model]
			out = append(out, tinyInterval{i, j, int(size), costScale * miss / size * size})
			break
		}
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
		reqs := make([]fooRequest, m)
		for i := range reqs {
			id := uint64(i % loop)
			if rng.Intn(4) == 0 {
				id = uint64(10 + rng.Intn(3))
			}
			size := int32(1)
			if !unit {
				size = 1 + int32(rng.Intn(8))
			}
			reqs[i] = fooRequest{pos: int32(i), id: id, size: size, cost: size*8 - int32(rng.Intn(8))}
		}
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
// fixed allocations are the plan and its Keep slice, the fold prefix
// maxima, the per-set partition, the segment list and the fan-out closures.
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
		{"synthetic/segLimit=64", synthetic, cfg, 64, 10},
		{"synthetic/segLimit=32", synthetic, cfg, 32, 10},
		{"kafka", kafka, def, 0, 10},
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
