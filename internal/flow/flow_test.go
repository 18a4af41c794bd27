package flow

import (
	"math"
	"math/rand"
	"testing"
)

func TestSimplePath(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 5, 2)
	g.AddEdge(1, 2, 3, 1)
	res := NewSolver().MinCostFlow(g, 0, 2, math.MaxInt64)
	if res.Flow != 3 || res.Cost != 9 {
		t.Errorf("res = %+v, want flow 3 cost 9", res)
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	g := NewGraph(4)
	cheap := g.AddEdge(0, 1, 2, 1)
	g.AddEdge(1, 3, 2, 1)
	exp := g.AddEdge(0, 2, 2, 10)
	g.AddEdge(2, 3, 2, 10)
	res := NewSolver().MinCostFlow(g, 0, 3, 2)
	if res.Flow != 2 || res.Cost != 4 {
		t.Errorf("res = %+v, want flow 2 cost 4", res)
	}
	if g.Flow(cheap) != 2 || g.Flow(exp) != 0 {
		t.Errorf("flows: cheap=%d expensive=%d", g.Flow(cheap), g.Flow(exp))
	}
}

func TestSpillsToExpensivePath(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(1, 3, 2, 1)
	g.AddEdge(0, 2, 2, 10)
	g.AddEdge(2, 3, 2, 10)
	res := NewSolver().MinCostFlow(g, 0, 3, 4)
	if res.Flow != 4 || res.Cost != 2*2+2*20 {
		t.Errorf("res = %+v, want flow 4 cost 44", res)
	}
}

func TestMaxFlowLimit(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 100, 1)
	res := NewSolver().MinCostFlow(g, 0, 1, 7)
	if res.Flow != 7 || res.Cost != 7 {
		t.Errorf("res = %+v", res)
	}
}

func TestNoPath(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 5, 1)
	res := NewSolver().MinCostFlow(g, 0, 2, math.MaxInt64)
	if res.Flow != 0 || res.Cost != 0 {
		t.Errorf("res = %+v, want zero", res)
	}
}

func TestSameSourceSink(t *testing.T) {
	g := NewGraph(1)
	if res := NewSolver().MinCostFlow(g, 0, 0, 10); res.Flow != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph(2)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 5, 1, 1) },
		func() { g.AddEdge(0, 1, -1, 1) },
		func() { g.AddEdge(0, 1, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSolveSupplies(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(1, 2, 10, 1)
	res, err := NewSolver().SolveSupplies(g, []int64{4, 0, -4})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if res.Flow != 4 || res.Cost != 8 {
		t.Errorf("res = %+v", res)
	}
}

func TestSolveSuppliesInfeasible(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 2, 1)
	if _, err := NewSolver().SolveSupplies(g, []int64{5, -5}); err == nil {
		t.Error("want infeasibility error")
	}
}

func TestSolveSuppliesUnbalanced(t *testing.T) {
	g := NewGraph(2)
	if _, err := NewSolver().SolveSupplies(g, []int64{1, 0}); err == nil {
		t.Error("want balance error")
	}
}

func TestSolveSuppliesWrongLength(t *testing.T) {
	g := NewGraph(2)
	if _, err := NewSolver().SolveSupplies(g, []int64{1}); err == nil {
		t.Error("want length error")
	}
}

// bruteMinCost enumerates all integral flows on a tiny graph and returns the
// min cost of routing `want` units s->t; -1 when infeasible. Independent of
// the solver implementation.
type bruteEdge struct {
	u, v      int
	cap, cost int64
}

func bruteMinCost(n int, edges []bruteEdge, s, t int, want int64) int64 {
	best := int64(-1)
	flows := make([]int64, len(edges))
	var rec func(i int)
	rec = func(i int) {
		if i == len(edges) {
			// Check conservation and throughput.
			bal := make([]int64, n)
			var cost int64
			for j, e := range edges {
				bal[e.u] -= flows[j]
				bal[e.v] += flows[j]
				cost += flows[j] * e.cost
			}
			for v := 0; v < n; v++ {
				switch v {
				case s:
					if bal[v] != -want {
						return
					}
				case t:
					if bal[v] != want {
						return
					}
				default:
					if bal[v] != 0 {
						return
					}
				}
			}
			if best < 0 || cost < best {
				best = cost
			}
			return
		}
		for f := int64(0); f <= edges[i].cap; f++ {
			flows[i] = f
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// TestAgainstBruteForce cross-checks the solver against exhaustive
// enumeration on random tiny graphs.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sv := NewSolver() // one arena across every graph size: reuse must not leak state
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(3) // 3..5 nodes
		ne := 3 + rng.Intn(4)
		edges := make([]bruteEdge, 0, ne)
		for i := 0; i < ne; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, bruteEdge{u, v, int64(1 + rng.Intn(3)), int64(rng.Intn(5))})
		}
		s, tt := 0, n-1
		g := NewGraph(n)
		for _, e := range edges {
			g.AddEdge(e.u, e.v, e.cap, e.cost)
		}
		// First find max flow via the solver, then check min-cost at a
		// smaller target against brute force.
		maxRes := sv.MinCostFlow(g, s, tt, math.MaxInt64)
		for want := int64(0); want <= maxRes.Flow; want++ {
			g2 := NewGraph(n)
			for _, e := range edges {
				g2.AddEdge(e.u, e.v, e.cap, e.cost)
			}
			got := sv.MinCostFlow(g2, s, tt, want)
			if got.Flow != want {
				t.Fatalf("iter %d: solver routed %d of %d (max %d)", iter, got.Flow, want, maxRes.Flow)
			}
			brute := bruteMinCost(n, edges, s, tt, want)
			if brute < 0 {
				t.Fatalf("iter %d: brute says infeasible for %d units but solver routed it", iter, want)
			}
			if got.Cost != brute {
				t.Fatalf("iter %d want %d units: solver cost %d, brute %d (edges %+v)",
					iter, want, got.Cost, brute, edges)
			}
		}
	}
}

// TestFlowAccounting: per-edge flows reported by Flow() are conservative and
// sum to the result at the source.
func TestFlowAccounting(t *testing.T) {
	g := NewGraph(4)
	ids := []int{
		g.AddEdge(0, 1, 3, 1),
		g.AddEdge(0, 2, 3, 2),
		g.AddEdge(1, 3, 2, 1),
		g.AddEdge(2, 3, 4, 1),
	}
	res := NewSolver().MinCostFlow(g, 0, 3, math.MaxInt64)
	out := g.Flow(ids[0]) + g.Flow(ids[1])
	in := g.Flow(ids[2]) + g.Flow(ids[3])
	if out != res.Flow || in != res.Flow {
		t.Errorf("flow conservation: out=%d in=%d res=%d", out, in, res.Flow)
	}
	if g.Flow(ids[0]) > 3 || g.Flow(ids[2]) > 2 {
		t.Error("capacity violated")
	}
}

func BenchmarkMinCostFlowChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		const n = 2000
		g := NewGraph(n)
		for v := 0; v+1 < n; v++ {
			g.AddEdge(v, v+1, 8, 0)
		}
		// Outer edges skipping ahead, like FOO's interval edges.
		for v := 0; v+10 < n; v += 3 {
			g.AddEdge(v, v+10, 2, 3)
		}
		NewSolver().MinCostFlow(g, 0, n-1, 64)
	}
}
