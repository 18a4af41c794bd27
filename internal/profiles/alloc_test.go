package profiles

import (
	"runtime/debug"
	"testing"

	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestCollectAllocsFixed pins the allocations of one FLACK profile and its
// 3-bit weights over kafka's 10,000-block trace at the default geometry: the
// prepared trace, the solve and its replay, the rate map (sized from the
// window count) and the per-set grouping of the weights. The collector is
// off during the count, because a collection empties the solver and scratch
// pools and every solve after it would allocate fresh scratch.
func TestCollectAllocsFixed(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const want = 480
	spec, err := workload.Get("kafka")
	if err != nil {
		t.Fatal(err)
	}
	pws := trace.FormPWs(workload.GenerateSpec(spec, 10000, 0), 0)
	c := uopcache.DefaultConfig()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(5, func() {
		Collect(pws, c, SourceFLACK).Weights(c, 3)
	})
	if got != want {
		t.Errorf("Collect and Weights: %.0f allocations, want %d", got, want)
	}
}
