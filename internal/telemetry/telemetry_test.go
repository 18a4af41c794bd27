package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestBucketUpperBound(t *testing.T) {
	cases := []struct {
		i    int
		want uint64
	}{
		{-1, 0}, {0, 0}, {1, 1}, {2, 3}, {3, 7}, {10, 1023},
		{63, 1<<63 - 1}, {64, math.MaxUint64}, {100, math.MaxUint64},
	}
	for _, c := range cases {
		if got := BucketUpperBound(c.i); got != c.want {
			t.Errorf("BucketUpperBound(%d) = %d, want %d", c.i, got, c.want)
		}
	}
}

// TestHistogramBucketEdges pins the log2 bucketing: 0 goes to bucket 0, and
// each power of two opens a new bucket whose upper bound is 2^i - 1.
func TestHistogramBucketEdges(t *testing.T) {
	var h Histogram
	samples := []uint64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, math.MaxUint64}
	for _, v := range samples {
		h.Observe(v)
	}
	count, sum, buckets := h.Snapshot()
	if count != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d", count, len(samples))
	}
	wantSum := uint64(0)
	for _, v := range samples {
		wantSum += v
	}
	if sum != wantSum {
		t.Fatalf("sum = %d, want %d", sum, wantSum)
	}
	want := map[int]uint64{
		0:  1, // 0
		1:  1, // 1
		2:  2, // 2, 3
		3:  2, // 4, 7
		4:  1, // 8
		10: 1, // 1023
		11: 1, // 1024
		64: 1, // MaxUint64
	}
	for i, n := range buckets {
		if n != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, n, want[i])
		}
	}
	// Every sample must fit under its bucket's upper bound and exceed the
	// previous bound.
	for _, v := range samples {
		var tmp Histogram
		tmp.Observe(v)
		_, _, b := tmp.Snapshot()
		for i, n := range b {
			if n == 0 {
				continue
			}
			if v > BucketUpperBound(i) {
				t.Errorf("sample %d landed in bucket %d with bound %d", v, i, BucketUpperBound(i))
			}
			if i > 0 && v <= BucketUpperBound(i-1) {
				t.Errorf("sample %d should be in bucket <= %d", v, i-1)
			}
		}
	}
}

// TestConcurrentCounters hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this also proves the mutation paths
// are data-race-free.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Resolve inside the goroutine: get-or-create must also be safe.
			c := reg.Counter("test_total")
			h := reg.Histogram("test_hist")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(uint64(i))
				reg.Gauge("test_gauge").Set(float64(g))
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Counter("test_total").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Histogram("test_hist").Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("Counter not idempotent")
	}
	if reg.Gauge("a") != reg.Gauge("a") {
		t.Error("Gauge not idempotent")
	}
	if reg.Histogram("a") != reg.Histogram("a") {
		t.Error("Histogram not idempotent")
	}
}

// TestAddCounters: every counter of the source is added to the
// same-named counter of the destination, created when missing; gauges and
// histograms stay behind, and the source is unchanged.
func TestAddCounters(t *testing.T) {
	src, dst := NewRegistry(), NewRegistry()
	src.Counter("a_total").Add(3)
	src.Counter("b_total").Add(5)
	src.Gauge("g").Set(1)
	dst.Counter("a_total").Add(10)
	dst.AddCounters(src)
	dst.AddCounters(src)
	if a, b := dst.Counter("a_total").Value(), dst.Counter("b_total").Value(); a != 16 || b != 10 {
		t.Errorf("a_total %d, b_total %d; want 16, 10", a, b)
	}
	if src.Counter("a_total").Value() != 3 {
		t.Errorf("source a_total changed to %d", src.Counter("a_total").Value())
	}
	if len(dst.gauges) != 0 {
		t.Errorf("gauges copied: %v", dst.gauges)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("uopcache_misses_total").Add(7)
	reg.Gauge("frontend_ipc").Set(1.5)
	h := reg.Histogram("uopcache_lookup_uops")
	h.Observe(0)
	h.Observe(1)
	h.Observe(5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE uopcache_misses_total counter\nuopcache_misses_total 7\n",
		"# TYPE frontend_ipc gauge\nfrontend_ipc 1.5\n",
		"# TYPE uopcache_lookup_uops histogram\n",
		`uopcache_lookup_uops_bucket{le="0"} 1`,
		`uopcache_lookup_uops_bucket{le="1"} 2`,
		`uopcache_lookup_uops_bucket{le="7"} 3`,
		`uopcache_lookup_uops_bucket{le="+Inf"} 3`,
		"uopcache_lookup_uops_sum 6",
		"uopcache_lookup_uops_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
}

// TestWriteJSON round-trips the JSON exposition through encoding/json.
func TestWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total").Add(3)
	reg.Gauge("g").Set(2.25)
	reg.Histogram("h").Observe(4)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got registryJSON
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if got.Counters["c_total"] != 3 {
		t.Errorf("counter = %d, want 3", got.Counters["c_total"])
	}
	if got.Gauges["g"] != 2.25 {
		t.Errorf("gauge = %g, want 2.25", got.Gauges["g"])
	}
	h := got.Histograms["h"]
	if h.Count != 1 || h.Sum != 4 || len(h.Buckets) != 1 || h.Buckets[0].LE != 7 || h.Buckets[0].Count != 1 {
		t.Errorf("histogram = %+v", h)
	}
}

// TestWriteFile checks extension-based format switching and that collection
// hooks run on write.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	hookRuns := 0
	reg.OnCollect(func() {
		hookRuns++
		reg.Counter("scraped_total").Store(42)
	})

	promPath := filepath.Join(dir, "metrics.txt")
	if err := reg.WriteFile(promPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "scraped_total 42") {
		t.Errorf("prometheus file missing hook value:\n%s", data)
	}

	jsonPath := filepath.Join(dir, "metrics.json")
	if err := reg.WriteFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var got registryJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf(".json file is not JSON: %v", err)
	}
	if got.Counters["scraped_total"] != 42 {
		t.Errorf("json counters = %v", got.Counters)
	}
	if hookRuns != 2 {
		t.Errorf("collect hook ran %d times, want 2", hookRuns)
	}
}
