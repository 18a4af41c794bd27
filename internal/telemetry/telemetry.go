// Package telemetry is the simulator's observability layer: a lock-cheap
// metrics registry (counters, gauges, log-scale histograms) with
// Prometheus-text and JSON exposition, a sampled structured event trace of
// micro-op cache decisions (JSONL), per-run manifests, a progress reporter,
// and an operational HTTP endpoint (net/http/pprof + /metrics + /healthz).
//
// The package is stdlib-only and depends on nothing else in the repository,
// so every layer (uopcache, offline, frontend, policy, experiments, cmd/)
// can hang counters off one shared Registry. Metric mutation is a single
// atomic add; registration is mutex-guarded but happens once per name, so
// instrumented hot paths stay allocation-free.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store overwrites the value; used when publishing an externally maintained
// aggregate (e.g. uopcache.Stats) into the registry.
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (stored as float64 bits).
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramBuckets is the number of log2 buckets a Histogram keeps: bucket 0
// holds the value 0 and bucket i (i >= 1) holds values in [2^(i-1), 2^i).
const HistogramBuckets = 65

// Histogram is a log-scale (powers-of-two) histogram over uint64 samples.
// It is fixed-size, allocation-free to observe into, and safe for
// concurrent use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistogramBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// BucketUpperBound returns the largest value bucket i holds: 0 for bucket 0
// and 2^i - 1 otherwise (the final bucket's bound saturates at MaxUint64).
func BucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Snapshot returns a consistent-enough copy of the bucket counts (individual
// loads are atomic; the histogram may be concurrently updated).
func (h *Histogram) Snapshot() (count, sum uint64, buckets [HistogramBuckets]uint64) {
	count = h.count.Load()
	sum = h.sum.Load()
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return count, sum, buckets
}

// Registry is a named collection of metrics. Get-or-create accessors are
// mutex-guarded; returned metrics are updated with plain atomics, so callers
// should resolve names once and keep the pointers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	collects []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// AddCounters adds the value of every counter in src to the counter of the
// same name in r, creating it if needed: a run counted in a registry of its
// own can then be rolled up into a longer-lived one. The names are src's,
// each registered there through Counter. src's collection hooks are not
// run.
func (r *Registry) AddCounters(src *Registry) {
	src.mu.Lock()
	values := make(map[string]uint64, len(src.counters))
	for name, c := range src.counters {
		values[name] = c.Value()
	}
	src.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range values {
		c, ok := r.counters[name]
		if !ok {
			c = &Counter{}
			r.counters[name] = c
		}
		c.Add(v)
	}
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// OnCollect registers a hook run before each exposition, letting components
// that keep their own aggregates (e.g. uopcache.Stats) publish fresh values
// on scrape instead of paying per-event costs.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collects = append(r.collects, fn)
}

// Collect runs the registered collection hooks.
func (r *Registry) Collect() {
	r.mu.Lock()
	hooks := append([]func(){}, r.collects...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// sortedKeys returns map keys in lexical order for deterministic exposition.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (histogram buckets are cumulative with an explicit +Inf).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ew := &errWriter{w: w}
	for _, name := range sortedKeys(r.counters) {
		fmt.Fprintf(ew, "# TYPE %s counter\n%s %d\n", name, name, r.counters[name].Value())
	}
	for _, name := range sortedKeys(r.gauges) {
		fmt.Fprintf(ew, "# TYPE %s gauge\n%s %g\n", name, name, r.gauges[name].Value())
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		count, sum, buckets := h.Snapshot()
		fmt.Fprintf(ew, "# TYPE %s histogram\n", name)
		var cum uint64
		for i, n := range buckets {
			if n == 0 {
				continue
			}
			cum += n
			fmt.Fprintf(ew, "%s_bucket{le=\"%d\"} %d\n", name, BucketUpperBound(i), cum)
		}
		fmt.Fprintf(ew, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
		fmt.Fprintf(ew, "%s_sum %d\n%s_count %d\n", name, sum, name, count)
	}
	return ew.err
}

// HistogramJSON is the JSON shape of one histogram.
type HistogramJSON struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Buckets []BucketJSON `json:"buckets,omitempty"`
}

// BucketJSON is one non-empty histogram bucket.
type BucketJSON struct {
	LE    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// registryJSON is the JSON exposition shape.
type registryJSON struct {
	Counters   map[string]uint64        `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramJSON `json:"histograms,omitempty"`
}

// WriteJSON writes the registry as a single JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	out := registryJSON{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramJSON, len(r.hists)),
	}
	for name, c := range r.counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		out.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		count, sum, buckets := h.Snapshot()
		hj := HistogramJSON{Count: count, Sum: sum}
		for i, n := range buckets {
			if n != 0 {
				hj.Buckets = append(hj.Buckets, BucketJSON{LE: BucketUpperBound(i), Count: n})
			}
		}
		out.Histograms[name] = hj
	}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteFile runs the collection hooks and atomically writes the registry to
// path: JSON when the extension is .json, Prometheus text otherwise. A
// crash mid-write leaves the previous file intact rather than a torn one.
func (r *Registry) WriteFile(path string) error {
	r.Collect()
	return AtomicWriteFile(path, 0o644, func(w io.Writer) error {
		if strings.EqualFold(filepath.Ext(path), ".json") {
			return r.WriteJSON(w)
		}
		return r.WritePrometheus(w)
	})
}

// errWriter is a sticky-error io.Writer so multi-write renderers propagate
// the first failure instead of silently dropping it.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}
