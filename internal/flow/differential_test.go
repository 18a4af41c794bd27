package flow

import (
	"math"
	"math/rand"
	"testing"

	"uopsim/internal/telemetry"
)

// fooReq is one request of a FOO-shaped instance: an object id, its size in
// cache entries (1..8) and its micro-op count.
type fooReq struct {
	id         int
	size, uops int64
}

// buildFOO builds the FOO interval-caching network the offline package
// solves for one cache set: inner edges i→i+1 of capacity ways, one outer
// edge per interval (request → next request of the same object) carrying
// the interval's size at its per-unit miss cost, and the matching supplies.
// model 0, 1 and 2 are the OHR, BHR and VC cost models. The network is
// built into g after a Reset; buildFOO returns g, the supplies and the outer
// edge ids in request order.
func buildFOO(g *Graph, reqs []fooReq, ways int64, model int) (*Graph, []int64, []int) {
	m := len(reqs)
	nextOcc := make([]int, m)
	last := map[int]int{}
	for i := m - 1; i >= 0; i-- {
		nextOcc[i] = -1
		if j, ok := last[reqs[i].id]; ok {
			nextOcc[i] = j
		}
		last[reqs[i].id] = i
	}
	g.Reset(m, 0)
	for i := 0; i+1 < m; i++ {
		g.AddEdge(i, i+1, ways, 0)
	}
	supply := make([]int64, m)
	var outer []int
	for i, j := range nextOcc {
		if j < 0 {
			continue
		}
		size := reqs[i].size
		miss := [3]int64{1, size, reqs[i].uops}[model]
		outer = append(outer, g.AddEdge(i, j, size, 840*miss/size))
		supply[i] += size
		supply[j] -= size
	}
	return g, supply, outer
}

// loopRequests decodes a FOO request stream: each byte is either the next
// id of a loop of length loop (high bit clear) or a one-off id (high bit
// set). With perID set every object has one fixed size, as without
// variant folding; otherwise each request carries its own size.
func loopRequests(loop int, perID bool, stream []byte) []fooReq {
	reqs := make([]fooReq, 0, len(stream))
	for i, b := range stream {
		id := i % loop
		if b&0x80 != 0 {
			id = 100 + int(b>>3&15)
		}
		size := 1 + int64(b&7)
		if perID {
			size = 1 + int64(id*5+loop)%8
		}
		uops := size*8 - int64(b>>4&7)
		reqs = append(reqs, fooReq{id: id, size: size, uops: uops})
	}
	return reqs
}

// checkAgainstReference solves one FOO instance with Solver and with the
// full-Dijkstra reference and requires the same Result and the same
// zero/non-zero flow on every outer edge (the keep decision).
func checkAgainstReference(t *testing.T, sv *Solver, reqs []fooReq, ways int64, model int) {
	t.Helper()
	g, supply, outer := buildFOO(&Graph{}, reqs, ways, model)
	ref, refSupply, _ := buildFOO(&Graph{}, reqs, ways, model)
	got, err := sv.SolveSupplies(g, supply)
	if err != nil {
		t.Fatalf("solver: %v", err)
	}
	want, err := refSolveSupplies(ref, refSupply)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if got != want {
		t.Fatalf("ways=%d model=%d reqs=%v: result %+v, reference %+v", ways, model, reqs, got, want)
	}
	for k, e := range outer {
		if (g.Flow(e) == 0) != (ref.Flow(e) == 0) {
			t.Fatalf("ways=%d model=%d reqs=%v: outer edge %d flow %d, reference %d",
				ways, model, reqs, k, g.Flow(e), ref.Flow(e))
		}
	}
}

// TestSolverMatchesReferenceOnFOOInstances runs the early-exit solver and
// the full-Dijkstra reference over randomised FOO instances: sizes 1–8,
// ways 1–16, all three cost models, loop-shaped id streams.
func TestSolverMatchesReferenceOnFOOInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sv := NewSolver()
	stream := make([]byte, 64)
	for iter := 0; iter < 2000; iter++ {
		rng.Read(stream)
		n := 2 + rng.Intn(len(stream)-1)
		reqs := loopRequests(1+rng.Intn(12), rng.Intn(2) == 0, stream[:n])
		checkAgainstReference(t, sv, reqs, int64(1+rng.Intn(16)), rng.Intn(3))
	}
}

// FuzzSolverVsReference is the fuzzing form of the differential above.
func FuzzSolverVsReference(f *testing.F) {
	f.Add(uint8(7), uint8(0), uint8(5), true, []byte("\x00\x01\x02\x03\x04\x05\x06\x07\x00\x01\x02\x03\x04\x05\x06\x07"))
	f.Add(uint8(3), uint8(1), uint8(3), false, []byte("\x07\x15\x23\x31\x47\x55\x63\x71\x07\x15\x23\x31"))
	f.Add(uint8(15), uint8(2), uint8(11), true, []byte("\x10\x20\x30\x40\x50\x60\x70\x90\x10\x20\x30\x40\x50\x60\x70\xa0\x10\x20"))
	f.Add(uint8(0), uint8(2), uint8(1), false, []byte("\x81\x82\x81\x03\x82\x81\x83"))
	f.Fuzz(func(t *testing.T, ways, model, loop uint8, perID bool, stream []byte) {
		if len(stream) > 128 {
			stream = stream[:128]
		}
		reqs := loopRequests(1+int(loop)%12, perID, stream)
		checkAgainstReference(t, NewSolver(), reqs, 1+int64(ways)%16, int(model)%3)
	})
}

// TestWorkCounters: one MinCostFlow call publishes its phases,
// augmentations and settled nodes, counted per settled node rather than per
// heap pop, through the registry RegisterMetrics fills.
func TestWorkCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	phases := reg.Counter("flow_phases_total")
	augs, settled := reg.Counter("flow_augmentations_total"), reg.Counter("flow_settled_total")
	for _, tc := range []struct {
		name                  string
		n                     int
		edges                 [][4]int64 // u, v, capacity, cost
		phases, augs, settled uint64
	}{
		// Phase 1 settles 0, 1, 2 and augments once; the failed second
		// Dijkstra settles 0 and 1.
		{"chain", 3, [][4]int64{{0, 1, 5, 2}, {1, 2, 3, 1}}, 2, 1, 5},
		// Two equal-cost paths: phase 1 settles all four nodes, augments
		// along 0→2→3 and then along the zero-reduced-cost 0→1→3 without
		// another Dijkstra; the failed second Dijkstra settles only 0.
		{"two paths, one phase", 4, [][4]int64{{0, 1, 1, 1}, {1, 3, 1, 0}, {0, 2, 1, 1}, {2, 3, 1, 0}}, 2, 2, 5},
	} {
		reg.Collect()
		p0, a0, s0 := phases.Value(), augs.Value(), settled.Value()
		g := NewGraph(tc.n)
		for _, e := range tc.edges {
			g.AddEdge(int(e[0]), int(e[1]), e[2], e[3])
		}
		NewSolver().MinCostFlow(g, 0, tc.n-1, math.MaxInt64)
		reg.Collect()
		if p, a, s := phases.Value()-p0, augs.Value()-a0, settled.Value()-s0; p != tc.phases || a != tc.augs || s != tc.settled {
			t.Errorf("%s: phases +%d augmentations +%d settled +%d, want +%d +%d +%d",
				tc.name, p, a, s, tc.phases, tc.augs, tc.settled)
		}
	}
}

// TestGraphResetReusesStorage: a graph reset for a second instance keeps
// its arc storage and solves exactly like a freshly built one.
func TestGraphResetReusesStorage(t *testing.T) {
	first := loopRequests(6, false, []byte{0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1})
	second := loopRequests(4, true, []byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1})
	sv := NewSolver()

	g := NewGraphCap(len(first), 4*len(first))
	arcs := &g.to[:1][0]
	_, supply, _ := buildFOO(g, first, 3, 2)
	if _, err := sv.SolveSupplies(g, supply); err != nil {
		t.Fatal(err)
	}
	_, supply, outer := buildFOO(g, second, 2, 0)
	if &g.to[:1][0] != arcs {
		t.Error("Reset reallocated arc storage that was large enough")
	}
	fresh, freshSupply, _ := buildFOO(NewGraph(0), second, 2, 0)
	got, err := sv.SolveSupplies(g, supply)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sv.SolveSupplies(fresh, freshSupply)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reset graph %+v, fresh graph %+v", got, want)
	}
	for _, e := range outer {
		if g.Flow(e) != fresh.Flow(e) {
			t.Fatalf("edge %d: reset graph flow %d, fresh graph %d", e, g.Flow(e), fresh.Flow(e))
		}
	}
}
