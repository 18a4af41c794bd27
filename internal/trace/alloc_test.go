package trace_test

import (
	"testing"

	"uopsim/internal/trace"
	"uopsim/internal/workload"
)

// TestFormPWsAllocsOnce: FormPWs sizes its output once from the block count,
// so forming kafka's baseline windows (more windows than blocks) allocates
// once, not once per growth of the output.
func TestFormPWsAllocsOnce(t *testing.T) {
	spec, err := workload.Get("kafka")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5000, 20000} {
		blocks := workload.GenerateSpec(spec, n, 0)
		if pws := trace.FormPWs(blocks, 0); len(pws) <= len(blocks) {
			t.Fatalf("%d blocks: %d windows from %d blocks; want more windows than blocks", n, len(pws), len(blocks))
		}
		if a := testing.AllocsPerRun(20, func() { trace.FormPWs(blocks, 0) }); a > 1 {
			t.Errorf("%d blocks: FormPWs allocated %.0f times, want at most 1", n, a)
		}
	}
}
