package flow

import (
	"container/heap"
	"fmt"
	"math"
)

// refHeap is container/heap's binary heap over Dijkstra entries. Solver's
// hand-written heap must pop equal-distance entries in exactly this order.
type refHeap []pqItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(pqItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refMinCostFlow is the test reference for Solver.MinCostFlow: primal-dual
// successive shortest paths in which every phase runs Dijkstra to
// exhaustion, only the nodes it reached update their potentials, and the
// phase augments along the shortest path found and then along every path a
// recursive depth-first search finds over zero-reduced-cost residual arcs,
// in adjacency order. It shares nothing with Solver but the Graph, so a
// change to the solver's early exit, heap, potential rule or augmentation
// rule shows up as a different flow.
func refMinCostFlow(g *Graph, src, t int, maxFlow int64) Result {
	if src == t {
		return Result{}
	}
	pot := make([]int64, g.n)
	var res Result
	for res.Flow < maxFlow {
		dist := make([]int64, g.n)
		reached := make([]bool, g.n)
		visited := make([]bool, g.n)
		prevArc := make([]int32, g.n)
		reached[src] = true
		h := &refHeap{{int32(src), 0}}
		for h.Len() > 0 {
			u := int(heap.Pop(h).(pqItem).node)
			if visited[u] {
				continue
			}
			visited[u] = true
			for a := g.headA[u]; a != -1; a = g.next[a] {
				if g.cap[a] <= 0 {
					continue
				}
				v := int(g.to[a])
				if visited[v] {
					continue
				}
				nd := dist[u] + g.cost[a] + pot[u] - pot[v]
				if !reached[v] || nd < dist[v] {
					dist[v] = nd
					reached[v] = true
					prevArc[v] = a
					heap.Push(h, pqItem{int32(v), nd})
				}
			}
		}
		if !visited[t] {
			break
		}
		for i := range pot {
			if reached[i] {
				pot[i] += dist[i]
			}
		}
		for {
			push := maxFlow - res.Flow
			for v := t; v != src; {
				a := prevArc[v]
				push = min(push, g.cap[a])
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
			if res.Flow == maxFlow || !refZeroPath(g, pot, prevArc, make([]bool, g.n), src, t) {
				break
			}
		}
	}
	return res
}

// refZeroPath is a recursive depth-first search from u for a path to t over
// residual arcs of zero reduced cost under pot, trying u's arcs in
// adjacency order and recording the path in prevArc.
func refZeroPath(g *Graph, pot []int64, prevArc []int32, visited []bool, u, t int) bool {
	visited[u] = true
	if u == t {
		return true
	}
	for a := g.headA[u]; a != -1; a = g.next[a] {
		v := int(g.to[a])
		if g.cap[a] > 0 && !visited[v] && g.cost[a]+pot[u]-pot[v] == 0 {
			prevArc[v] = a
			if refZeroPath(g, pot, prevArc, visited, v, t) {
				return true
			}
		}
	}
	return false
}

// refSolveSupplies is SolveSupplies over refMinCostFlow.
func refSolveSupplies(g *Graph, supply []int64) (Result, error) {
	src, t, total, err := g.attachSupplies(supply)
	if err != nil {
		return Result{}, err
	}
	res := refMinCostFlow(g, src, t, math.MaxInt64)
	if res.Flow != total {
		return res, fmt.Errorf("flow: infeasible, routed %d of %d", res.Flow, total)
	}
	return res, nil
}
