package workload

import (
	"runtime/debug"
	"testing"
)

// TestGenerateAllocsFixed pins the allocations of one kafka Generate call.
// The popularity ranking, its CDF, the two random sources, the phase sets
// and the walker are allocated once. The output is sized from numBlocks and
// grows only while the last invocation runs past it, and kafka's
// invocations overshoot a short request the most (15,694 blocks for 5,000,
// 83,032 for 80,000), so a shorter request takes more growths. Nothing is
// allocated per block. The collector is off during the count: a collection
// adds allocations of the runtime's own.
func TestGenerateAllocsFixed(t *testing.T) {
	spec, err := Get("kafka")
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct{ blocks, want int }{{5000, 18}, {20000, 15}, {80000, 14}} {
		got := testing.AllocsPerRun(5, func() { prog.Generate(tc.blocks, 0) })
		if got != float64(tc.want) {
			t.Errorf("%d blocks: Generate allocated %.0f times, want %d", tc.blocks, got, tc.want)
		}
	}
}
