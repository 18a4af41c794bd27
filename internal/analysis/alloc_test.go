package analysis

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestRunAllocsFixed pins the allocations of one run of every analyzer over
// the fixture packages under testdata/src. The module's own count grows with
// every function added to it; the fixtures change only with the analyzers'
// tests. Some analyzers walk maps, and the iteration order changes how much
// they walk before they stop, which adds up to about ten allocations to a
// run. The fewest over twenty runs is the pinned count: a run reached it in
// about every other try. The collector is off, because a collection empties
// fmt's printer pool.
func TestRunAllocsFixed(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const want = 6004
	prog, err := Load(".", "./testdata/src/...")
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := testing.AllocsPerRun(1, func() { Run(prog, All()) })
	for i := 1; i < 20; i++ {
		runtime.GC()
		fewest = min(fewest, testing.AllocsPerRun(1, func() { Run(prog, All()) }))
	}
	if fewest != want {
		t.Errorf("Run over the fixtures: at fewest %.0f allocations in 20 runs, want %d", fewest, want)
	}
}
