package trace_test

import (
	"testing"

	"uopsim/internal/trace"
	"uopsim/internal/workload"
)

// TestFormedWindowLines checks the lines PW.Lines derives for every window
// the baseline and the CLASP Former cut from each app's trace: the span
// starts at LineAddr(Start) and lists exactly the lines holding the
// window's bytes, found byte by byte, in ascending order. (A window's last
// instruction may straddle into the next line, so even a baseline window
// can span two.)
func TestFormedWindowLines(t *testing.T) {
	formers := []struct {
		name string
		f    func() *trace.Former
	}{
		{"baseline", func() *trace.Former { return trace.NewFormer(0) }},
		{"clasp", func() *trace.Former {
			return &trace.Former{MaxUops: trace.DefaultMaxUops, CrossLine: true, MaxLines: 2}
		}},
	}
	for _, spec := range workload.Catalog() {
		blocks := workload.GenerateSpec(spec, 2000, 0)
		for _, fm := range formers {
			pws := trace.FormPWsWith(blocks, fm.f())
			if len(pws) == 0 {
				t.Fatalf("%s/%s: no windows formed", spec.Name, fm.name)
			}
			for i, p := range pws {
				if p.Bytes == 0 {
					t.Fatalf("%s/%s: window %d has no bytes: %+v", spec.Name, fm.name, i, p)
				}
				var want []uint64
				for a := p.Start; a < p.Start+uint64(p.Bytes); a++ {
					if l := trace.LineAddr(a); len(want) == 0 || want[len(want)-1] != l {
						want = append(want, l)
					}
				}
				var got []uint64
				first, last := p.Lines()
				for l := first; l <= last; l += trace.LineSize {
					got = append(got, l)
				}
				if first != trace.LineAddr(p.Start) || len(got) != len(want) {
					t.Fatalf("%s/%s: window %d %+v: lines %#x, bytes lie in %#x",
						spec.Name, fm.name, i, p, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s/%s: window %d %+v: lines %#x, bytes lie in %#x",
							spec.Name, fm.name, i, p, got, want)
					}
				}
			}
		}
	}
}
