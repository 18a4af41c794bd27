// Package flow implements an integral min-cost max-flow solver (primal-dual
// successive shortest paths with Johnson potentials) used by the FOO and
// FLACK offline replacement policies to solve their interval-caching
// formulation (Berger et al., "Practical Bounds on Optimal Caching with
// Variable Object Sizes").
//
// The solve runs in phases. Each phase runs one Dijkstra on reduced costs,
// stopped as soon as the sink is settled, and updates the potentials: a
// settled node v takes pot += dist[v] and every other node takes
// pot += dist[t]. An unsettled node's true distance is at least dist[t], so
// every residual arc keeps a non-negative reduced cost, and the shortest
// path just found has reduced cost zero on every arc. The phase augments
// along that path and then along every further src→t path of
// zero-reduced-cost residual arcs, each found by a depth-first search in
// adjacency order, until none is left. Every such path is a shortest path,
// and augmenting along one only adds zero-cost reverse arcs, so the
// potentials stay valid without another Dijkstra; the next phase starts
// when the zero-reduced-cost paths run out.
//
// The scratch state (potentials, distances, parent arcs, visited marks,
// search positions, and the binary heap) lives in a reusable Solver arena:
// allocated once, grown to the largest graph seen, and invalidated by epoch
// stamping instead of O(n) clears between searches. FOO solves thousands of
// per-(set, segment) instances per experiment, so the arena turns the
// solver's allocation profile from per-instance to per-worker. A Graph can
// likewise be reshaped in place with Reset, keeping its arc storage.
package flow

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"uopsim/internal/telemetry"
)

// Graph is a directed flow network with integer capacities and costs.
// Nodes are dense integers [0, N).
type Graph struct {
	n int
	// Forward/backward edges are stored as arc pairs: arc 2i is the
	// forward direction of logical edge i, arc 2i+1 its residual.
	to    []int32
	next  []int32
	headA []int32
	cap   []int64
	cost  []int64
}

// NewGraph creates a graph with n nodes.
func NewGraph(n int) *Graph { return NewGraphCap(n, 0) }

// NewGraphCap creates a graph with n nodes, pre-sizing the arc storage for
// edgeCap logical edges (2*edgeCap arcs) so builders that know their exact
// edge count never grow a slice mid-build. The node index keeps two spare
// head slots for SolveSupplies' super source and sink.
func NewGraphCap(n, edgeCap int) *Graph {
	g := &Graph{}
	g.Reset(n, edgeCap)
	return g
}

// Reset empties g and reshapes it to n nodes with room for edgeCap logical
// edges, as NewGraphCap would, but keeps the node index and arc storage
// whenever they are already large enough: a builder that solves many graphs
// in turn reuses one Graph without allocating.
func (g *Graph) Reset(n, edgeCap int) {
	g.n = n
	if cap(g.headA) < n+2 {
		g.headA = make([]int32, n, n+2)
	}
	g.headA = g.headA[:n]
	for i := range g.headA {
		g.headA[i] = -1
	}
	if cap(g.to) < 2*edgeCap {
		g.to = make([]int32, 0, 2*edgeCap)
		g.next = make([]int32, 0, 2*edgeCap)
		g.cap = make([]int64, 0, 2*edgeCap)
		g.cost = make([]int64, 0, 2*edgeCap)
	}
	g.to, g.next = g.to[:0], g.next[:0]
	g.cap, g.cost = g.cap[:0], g.cost[:0]
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the logical edge count.
func (g *Graph) NumEdges() int { return len(g.to) / 2 }

// AddEdge adds a directed edge u→v with the given capacity and per-unit
// cost, returning its edge id (for Flow queries). Cost must be
// non-negative (the FOO construction only has non-negative costs).
func (g *Graph) AddEdge(u, v int, capacity, cost int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("flow: edge (%d,%d) outside graph of %d nodes", u, v, g.n))
	}
	if capacity < 0 || cost < 0 {
		panic(fmt.Sprintf("flow: negative capacity/cost (%d/%d)", capacity, cost))
	}
	id := len(g.to) / 2
	g.addArc(u, v, capacity, cost)
	g.addArc(v, u, 0, -cost)
	return id
}

func (g *Graph) addArc(u, v int, capacity, cost int64) {
	g.to = append(g.to, int32(v))
	g.next = append(g.next, g.headA[u])
	g.headA[u] = int32(len(g.to) - 1)
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
}

// Flow returns the flow routed over edge id after a Solve call.
func (g *Graph) Flow(id int) int64 {
	// Residual capacity on the reverse arc equals the routed flow.
	return g.cap[2*id+1]
}

// Result summarizes a solve.
type Result struct {
	// Flow is the total units routed from sources to sinks.
	Flow int64
	// Cost is the total cost of the routed flow.
	Cost int64
}

// heap entry for Dijkstra.
type pqItem struct {
	node int32
	dist int64
}

// Solver is a reusable min-cost-flow scratch arena. It carries no graph
// state between calls — only capacity — so one Solver may serve any number
// of graphs sequentially. Not safe for concurrent use; use one per worker
// (AcquireSolver/ReleaseSolver pool them).
type Solver struct {
	pot     []int64
	dist    []int64
	prevArc []int32
	// cur is each node's next arc to try in a zero-reduced-cost search.
	cur []int32
	// distE/visE stamp which entries of dist/prevArc (respectively the
	// visited set) are valid for the current search epoch; bumping the
	// epoch invalidates everything in O(1).
	distE []uint32
	visE  []uint32
	epoch uint32
	heap  []pqItem
}

// NewSolver returns an empty solver arena; arrays grow on first use.
func NewSolver() *Solver { return &Solver{} }

// grow ensures capacity for an n-node graph without disturbing epochs.
func (s *Solver) grow(n int) {
	if len(s.pot) >= n {
		return
	}
	s.pot = make([]int64, n)
	s.dist = make([]int64, n)
	s.prevArc = make([]int32, n)
	s.cur = make([]int32, n)
	s.distE = make([]uint32, n)
	s.visE = make([]uint32, n)
	s.epoch = 0
}

// bump starts a new search epoch, invalidating dist/visited stamps.
func (s *Solver) bump() {
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: stale stamps could alias; hard reset
		clear(s.distE)
		clear(s.visE)
		s.epoch = 1
	}
}

// The manual binary heap below replicates container/heap's sift order
// exactly (Push = append + sift-up; Pop = swap root/last, sift-down, return
// last; strictly-less comparisons on dist). Equal-distance entries therefore
// pop in the same order as the previous container/heap implementation, which
// keeps augmenting-path selection — and thus every FOO/FLACK plan — byte
// identical.

func (s *Solver) hpush(it pqItem) {
	h := append(s.heap, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

func (s *Solver) hpop() pqItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	s.heap = h[:n]
	return it
}

// MinCostFlow routes up to maxFlow units from src to t in g at minimum
// cost, stopping early when no augmenting path remains. Pass math.MaxInt64
// to route the maximum flow. All edge costs must be non-negative.
func (s *Solver) MinCostFlow(g *Graph, src, t int, maxFlow int64) Result {
	if src == t {
		return Result{}
	}
	s.grow(g.n)
	pot := s.pot[:g.n]
	clear(pot) // potentials start at zero each solve; valid since costs >= 0
	dist, prevArc := s.dist, s.prevArc
	distE, visE := s.distE, s.visE
	var res Result
	// Work counters stay in locals and are published once per call.
	var phases, augmentations, settled uint64

	for res.Flow < maxFlow {
		// Dijkstra on reduced costs, stopped when the sink is settled;
		// stamps replace the per-iteration O(n) dist/visited reset.
		phases++
		s.bump()
		ep := s.epoch
		dist[src] = 0
		distE[src] = ep
		s.heap = s.heap[:0]
		s.hpush(pqItem{int32(src), 0})
		for len(s.heap) > 0 {
			it := s.hpop()
			u := int(it.node)
			if visE[u] == ep {
				continue
			}
			visE[u] = ep
			settled++
			if u == t {
				break
			}
			for a := g.headA[u]; a != -1; a = g.next[a] {
				if g.cap[a] <= 0 {
					continue
				}
				v := int(g.to[a])
				if visE[v] == ep {
					continue
				}
				rc := g.cost[a] + pot[u] - pot[v]
				nd := dist[u] + rc
				if distE[v] != ep || nd < dist[v] {
					dist[v] = nd
					distE[v] = ep
					prevArc[v] = a
					s.hpush(pqItem{int32(v), nd})
				}
			}
		}
		if visE[t] != ep {
			break
		}
		dt := dist[t]
		for i := 0; i < g.n; i++ {
			if visE[i] == ep {
				pot[i] += dist[i]
			} else {
				pot[i] += dt
			}
		}
		// Augment along the shortest path, then along every further
		// zero-reduced-cost path the potentials admit.
		for {
			augmentations++
			s.augment(g, src, t, maxFlow, &res)
			if res.Flow == maxFlow || !s.zeroPath(g, src, t) {
				break
			}
		}
	}
	phasesTotal.Add(phases)
	augmentationsTotal.Add(augmentations)
	settledTotal.Add(settled)
	return res
}

// augment pushes as many units as the prevArc path from src to t carries,
// up to a total of maxFlow, and adds them and their cost to res.
func (s *Solver) augment(g *Graph, src, t int, maxFlow int64, res *Result) {
	prevArc := s.prevArc
	push := maxFlow - res.Flow
	for v := t; v != src; {
		a := prevArc[v]
		if g.cap[a] < push {
			push = g.cap[a]
		}
		v = int(g.to[a^1])
	}
	for v := t; v != src; {
		a := prevArc[v]
		g.cap[a] -= push
		g.cap[a^1] += push
		res.Cost += push * g.cost[a]
		v = int(g.to[a^1])
	}
	res.Flow += push
}

// zeroPath searches depth-first, in adjacency order, for a src→t path of
// residual arcs with zero reduced cost, recording it in prevArc. The search
// walks back up the tree through prevArc, so it keeps no stack: cur holds
// each open node's next arc to try.
func (s *Solver) zeroPath(g *Graph, src, t int) bool {
	s.bump()
	ep := s.epoch
	pot, prevArc, cur, visE := s.pot, s.prevArc, s.cur, s.visE
	visE[src] = ep
	cur[src] = g.headA[src]
	u := src
	for u != t {
		a := cur[u]
		if a == -1 {
			if u == src {
				return false
			}
			u = int(g.to[prevArc[u]^1])
			continue
		}
		cur[u] = g.next[a]
		v := int(g.to[a])
		if g.cap[a] <= 0 || visE[v] == ep || g.cost[a]+pot[u]-pot[v] != 0 {
			continue
		}
		visE[v] = ep
		prevArc[v] = a
		cur[v] = g.headA[v]
		u = v
	}
	return true
}

// SolveSupplies satisfies per-node supplies (positive) and demands
// (negative) at minimum cost by attaching a super source and sink to g. The
// supply slice must sum to zero. It returns the routed flow (== total
// supply) and its cost; err is non-nil when the network cannot absorb the
// supplies.
func (s *Solver) SolveSupplies(g *Graph, supply []int64) (Result, error) {
	src, t, total, err := g.attachSupplies(supply)
	if err != nil {
		return Result{}, err
	}
	res := s.MinCostFlow(g, src, t, math.MaxInt64)
	if res.Flow != total {
		return res, fmt.Errorf("flow: infeasible, routed %d of %d", res.Flow, total)
	}
	return res, nil
}

// attachSupplies validates supply against g and extends g with a super
// source feeding every supply node and a super sink draining every demand
// node. It returns the two new nodes and the total supply to route.
func (g *Graph) attachSupplies(supply []int64) (src, t int, total int64, err error) {
	if len(supply) != g.n {
		return 0, 0, 0, fmt.Errorf("flow: supply vector length %d != %d nodes", len(supply), g.n)
	}
	var balance int64
	for _, v := range supply {
		balance += v
		if v > 0 {
			total += v
		}
	}
	if balance != 0 {
		return 0, 0, 0, fmt.Errorf("flow: supplies sum to %d, want 0", balance)
	}
	src, t = g.n, g.n+1
	g.n += 2
	g.headA = append(g.headA, -1, -1)
	for i, sup := range supply {
		if sup > 0 {
			g.AddEdge(src, i, sup, 0)
		} else if sup < 0 {
			g.AddEdge(i, t, -sup, 0)
		}
	}
	return src, t, total, nil
}

// ---------------------------------------------------------------------------
// Solver pool and reuse telemetry

var (
	solverPool = sync.Pool{New: func() any {
		solverFresh.Add(1)
		return NewSolver()
	}}
	// solverReuse / solverFresh count pool hits vs. new arena allocations;
	// exposed as flow_solver_reuse_total / flow_solver_fresh_total.
	solverReuse atomic.Uint64
	solverFresh atomic.Uint64
	// phasesTotal / augmentationsTotal / settledTotal count Dijkstra runs
	// (one per phase), augmenting paths, and the nodes the Dijkstras
	// settled; exposed as flow_phases_total / flow_augmentations_total /
	// flow_settled_total.
	phasesTotal        atomic.Uint64
	augmentationsTotal atomic.Uint64
	settledTotal       atomic.Uint64
)

// AcquireSolver returns a pooled solver arena (allocating one only when the
// pool is empty). Pair with ReleaseSolver.
func AcquireSolver() *Solver {
	solverReuse.Add(1)
	return solverPool.Get().(*Solver)
}

// ReleaseSolver returns a solver to the pool. The arena keeps its grown
// capacity; no state carries over between users.
func ReleaseSolver(s *Solver) { solverPool.Put(s) }

// SolverReuseStats returns how many AcquireSolver calls were served from the
// pool (reuse) and how many had to allocate a fresh arena.
func SolverReuseStats() (reuse, fresh uint64) {
	f := solverFresh.Load()
	a := solverReuse.Load()
	return a - f, f
}

// RegisterMetrics exposes the solver counters in reg, refreshed at each
// collection: the pool's flow_solver_reuse_total and
// flow_solver_fresh_total, and the work counters flow_phases_total (one
// Dijkstra per phase, counting a solve's final Dijkstra that finds no
// path), flow_augmentations_total and flow_settled_total. settled / phases
// is the Dijkstra nodes settled per run; augmentations / phases is the
// augmenting paths each run pays for.
func RegisterMetrics(reg *telemetry.Registry) {
	reuse := reg.Counter("flow_solver_reuse_total")
	fresh := reg.Counter("flow_solver_fresh_total")
	phases := reg.Counter("flow_phases_total")
	augs := reg.Counter("flow_augmentations_total")
	settled := reg.Counter("flow_settled_total")
	reg.OnCollect(func() {
		r, f := SolverReuseStats()
		reuse.Store(r)
		fresh.Store(f)
		phases.Store(phasesTotal.Load())
		augs.Store(augmentationsTotal.Load())
		settled.Store(settledTotal.Load())
	})
}
