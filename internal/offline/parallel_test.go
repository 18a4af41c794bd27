package offline

import (
	"math/rand"
	"testing"

	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// TestComputeDecisionsWorkerInvariance: the solver's keep plan must be
// byte-identical at any worker count — each (set, segment) flow instance is
// independent and writes disjoint positions, so the fan-out may not change a
// single decision. Runs enough segments (small segLimit) that the pool
// actually interleaves.
func TestComputeDecisionsWorkerInvariance(t *testing.T) {
	cfg := uopcache.Config{Entries: 64, Ways: 8, UopsPerEntry: 8}
	rng := rand.New(rand.NewSource(11))
	var s []trace.PW
	for i := 0; i < 12000; i++ {
		s = append(s, pw(uint64(0x1000+rng.Intn(400)*16), 1+rng.Intn(24)))
	}
	for _, model := range []CostModel{CostOHR, CostBHR, CostVC} {
		for _, fold := range []bool{false, true} {
			ref := ComputeDecisionsPrepared(nil, uopcache.Prepare(cfg, s), cfg, model, fold, 256, 1)
			for _, workers := range []int{2, 4, 0} {
				got := ComputeDecisionsPrepared(nil, uopcache.Prepare(cfg, s), cfg, model, fold, 256, workers)
				if len(got.Keep) != len(ref.Keep) {
					t.Fatalf("model=%v fold=%v workers=%d: plan length %d != %d", model, fold, workers, len(got.Keep), len(ref.Keep))
				}
				for i := range ref.Keep {
					if got.Keep[i] != ref.Keep[i] {
						t.Fatalf("model=%v fold=%v workers=%d: Keep[%d] differs from serial plan", model, fold, workers, i)
					}
				}
			}
		}
	}
}

// TestRunFOOWorkerInvariance: threading Workers through Options must not
// change replay statistics either.
func TestRunFOOWorkerInvariance(t *testing.T) {
	cfg := uopcache.Config{Entries: 32, Ways: 4, UopsPerEntry: 8, InsertDelay: 2}
	rng := rand.New(rand.NewSource(7))
	var s []trace.PW
	for i := 0; i < 6000; i++ {
		s = append(s, pw(uint64(0x1000+rng.Intn(200)*16), 1+rng.Intn(24)))
	}
	ref := RunFOO(s, cfg, Options{Features: FLACKFeatures(), SegmentLimit: 256, Workers: 1})
	got := RunFOO(s, cfg, Options{Features: FLACKFeatures(), SegmentLimit: 256, Workers: 4})
	if ref.Stats != got.Stats {
		t.Fatalf("stats differ across worker counts:\nserial  %+v\nworkers %+v", ref.Stats, got.Stats)
	}
}
