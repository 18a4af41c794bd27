package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// The quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the acceptance rules use; the expected values were printed by it.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9.0}, 1.25, 3.5, 9.0},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2.5, 2.5, 2.5, 7}, 2.5, 2.5, 5.875},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.xs, s, c.q1, c.median, c.q3)
		}
	}
	if got := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).spread(); got != 0.5*(8.25-2.75)/2.75 {
		t.Errorf("spread = %v", got)
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

// fakeRunner returns the digests it is given, one per pass, and an error
// or a panic where asked.
type fakeRunner struct {
	digests []string
	errAt   int
	panicAt int
	n       int
}

func (f *fakeRunner) pass(*tracer, func()) (passOut, error) {
	i := f.n
	f.n++
	if i == f.panicAt {
		panic("boom")
	}
	if i == f.errAt {
		return passOut{}, errors.New("broken pass")
	}
	return passOut{digest: f.digests[i%len(f.digests)]}, nil
}

func TestFailRatioCountsFailedPasses(t *testing.T) {
	// Six passes: an error, a panic and a digest mismatch fail three.
	r := &fakeRunner{digests: []string{"a", "a", "a", "a", "b", "a"}, errAt: 1, panicAt: 3}
	first := timePasses(r, "a", 0, nil, nil)
	second := timePasses(r, "a", 0, nil, nil)
	n, failed := len(first.passes)+len(second.passes), first.failed+second.failed
	if n != 6 || failed != 3 {
		t.Fatalf("%d passes, %d failed, want 6 and 3 (errors %v %v)", n, failed, first.errors, second.errors)
	}
	if got := failRatio(n, failed); got != 0.5 {
		t.Fatalf("fail ratio = %v, want 0.5", got)
	}
	if failRatio(0, 0) != 0 {
		t.Fatal("fail ratio of no passes must be 0")
	}
}

func TestDigestMismatchIsAFailedPass(t *testing.T) {
	r := &fakeRunner{digests: []string{"ref", "other", "ref"}, errAt: -1, panicAt: -1}
	ps := timePasses(r, "ref", 0, nil, nil)
	if len(ps.passes) != minPasses || ps.failed != 1 || !ps.passes[1].Failed {
		t.Fatalf("passes %+v failed %d, want pass 1 failed", ps.passes, ps.failed)
	}
	if len(ps.ms) != 2 || !strings.Contains(ps.errors[0], "digest") {
		t.Fatalf("ms %v errors %v", ps.ms, ps.errors)
	}
}

func TestTracedRunAlternatesPasses(t *testing.T) {
	r := &fakeRunner{digests: []string{"x"}, errAt: -1, panicAt: -1}
	ps := timePasses(r, "x", 20*time.Millisecond, newTracer(), nil)
	if len(ps.tracedMs) == 0 || len(ps.ms) == 0 || len(ps.ms) < len(ps.tracedMs) {
		t.Fatalf("untraced %d traced %d", len(ps.ms), len(ps.tracedMs))
	}
}
