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
// tests.
//
// A single run's count is not exact, and the analyzers are not the cause:
// their walks are the same in every run. The runtime fills a type
// assertion's or type switch's cache on only about one miss in a thousand
// (runtime/iface.go), and each fill allocates. go/ast.Walk and the
// analyzers' type switches miss thousands of times a run, so a run in a
// fresh process reads up to about ten allocations high, and one in fifty
// still reads one or two high after 500 warm-up runs. A fill only adds, so
// the fewest over twenty runs is the analyzers' own count. The collector is
// off, because a collection empties fmt's printer pool.
func TestRunAllocsFixed(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const want = 6151
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
