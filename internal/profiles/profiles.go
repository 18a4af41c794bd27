// Package profiles implements the FURBYS offline pipeline of the paper's
// Fig. 6: record the PW lookup sequence (STEP 2), obtain per-window hit/miss
// behaviour from an offline policy — FLACK by default, Belady or FOO for the
// Fig. 15 sensitivity study — (STEPS 3–5), group windows by hit rate with
// Jenks natural breaks at set granularity (STEP 6), and emit the weight
// hints the modified decoder would read from the binary's reserved branch
// bits (STEP 7). It also supports merging profiles from multiple inputs for
// the cross-validation experiment (Fig. 18).
package profiles

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"uopsim/internal/jenks"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// Source selects the offline policy whose decisions the profile is built
// from (the paper's Fig. 15 compares all three).
type Source int

const (
	// SourceFLACK uses the paper's near-optimal policy (the default).
	SourceFLACK Source = iota
	// SourceBelady uses Belady's algorithm.
	SourceBelady
	// SourceFOO uses raw flow-based offline optimal.
	SourceFOO
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceFLACK:
		return "flack"
	case SourceBelady:
		return "belady"
	case SourceFOO:
		return "foo"
	default:
		return "unknown"
	}
}

// Rate accumulates a window's micro-op-weighted hit statistics.
type Rate struct {
	HitUops   uint64
	TotalUops uint64
	Lookups   uint64
}

// Value returns the hit rate in [0,1].
func (r Rate) Value() float64 {
	if r.TotalUops == 0 {
		return 0
	}
	return float64(r.HitUops) / float64(r.TotalUops)
}

// Profile maps each window start address to its profiled hit rate under the
// chosen offline policy.
//
// A Profile is read-only once built (by Collect, Merge or Load): Weights and
// ThermoClasses compute each hint map once and hand every later caller the
// same map, as the paper's hints are computed once offline and shipped with
// the binary. Changing Rates afterwards would leave those maps stale, and
// the maps themselves must not be written.
type Profile struct {
	Rates  map[uint64]Rate
	Source Source

	// mu guards the derived maps below: experiment cells that share a
	// profile ask for them concurrently.
	mu sync.Mutex
	// weights holds one hint map per (set count, weight bits) asked for;
	// it starts on weightsBuf, so a profile asked for one or two widths
	// allocates nothing for the memo itself.
	weights    []weightsMemo
	weightsBuf [2]weightsMemo
	classes    map[uint64]policy.ThermoClass
}

// weightsMemo is one memoized Weights result.
type weightsMemo struct {
	sets, bits int
	w          map[uint64]uint8
}

// Collect runs the offline policy over the lookup sequence and accumulates
// per-window hit rates (the paper's STEPS 3–6 input).
func Collect(pws []trace.PW, cfg uopcache.Config, src Source) *Profile {
	return CollectWith(pws, cfg, src, CollectOptions{})
}

// CollectOptions bundles a profiling replay's optional attachments: live
// metrics and event observability, the shared prepared trace (nil, or one
// built over another slice or geometry, means the replay prepares its own),
// the keep-plan cache (skips the flow solve on a hit), the solver worker
// bound, and the cancellation handle of the solve (nil = never cancelled; a
// caller that sets Ctx must discard the profile when Ctx.Err() != nil after
// the call). The zero value disables everything.
type CollectOptions struct {
	Ctx      context.Context
	Metrics  *telemetry.Registry
	Events   telemetry.EventSink
	Prepared *trace.PreparedTrace
	Plans    offline.PlanCache
	Workers  int
}

// CollectObserved is Collect with observability attached: the profiling
// replay's uopcache_* counters stream into metrics and its decision trace
// into events (either may be nil).
func CollectObserved(pws []trace.PW, cfg uopcache.Config, src Source, metrics *telemetry.Registry, events telemetry.EventSink) *Profile {
	return CollectWith(pws, cfg, src, CollectOptions{Metrics: metrics, Events: events})
}

// CollectWith is Collect with the full attachment set.
func CollectWith(pws []trace.PW, cfg uopcache.Config, src Source, o CollectOptions) *Profile {
	opts := offline.Options{
		Ctx:             o.Ctx,
		RecordPerLookup: true,
		Metrics:         o.Metrics,
		Events:          o.Events,
		Prepared:        o.Prepared,
		Plans:           o.Plans,
		Workers:         o.Workers,
	}
	var res offline.Result
	switch src {
	case SourceBelady:
		res = offline.RunBelady(pws, cfg, opts)
	case SourceFOO:
		opts.Features = offline.Features{}
		res = offline.RunFOO(pws, cfg, opts)
	default:
		res = offline.RunFLACK(pws, cfg, opts)
	}
	p := &Profile{Rates: make(map[uint64]Rate, len(pws)/8+1), Source: src}
	for i, r := range res.PerLookup {
		start := pws[i].Start
		acc := p.Rates[start]
		acc.HitUops += uint64(r.HitUops)
		acc.TotalUops += uint64(r.HitUops + r.MissUops)
		acc.Lookups++
		p.Rates[start] = acc
	}
	return p
}

// Merge combines profiles from multiple inputs into one (cross-validation:
// the training traces' profiles are merged into the deployed hint set).
func Merge(profiles ...*Profile) *Profile {
	out := &Profile{Rates: make(map[uint64]Rate)}
	for _, p := range profiles {
		if p == nil {
			continue
		}
		out.Source = p.Source
		for k, r := range p.Rates {
			acc := out.Rates[k]
			acc.HitUops += r.HitUops
			acc.TotalUops += r.TotalUops
			acc.Lookups += r.Lookups
			out.Rates[k] = acc
		}
	}
	return out
}

// quantize buckets hit rates so the per-set Jenks DP stays small; 1/256
// resolution loses nothing at 3-bit group granularity.
func quantize(v float64) float64 { return math.Round(v*256) / 256 }

// minClassGap is the smallest hit-rate difference two weight classes may be
// apart. Jenks always forms k classes even when a set's rates are nearly
// identical; without a floor, FURBYS's bypass (weight < min-K) fires between
// windows whose profiled behaviour is indistinguishable, which measurably
// hurts loop-heavy applications.
const minClassGap = 0.05

// Weights computes the FURBYS hint map: windows are grouped per cache set
// (replacement decisions are per-set, so weights are computed at set
// granularity — paper Section V) into 2^bits classes by Jenks natural
// breaks over their hit rates; the class index is the weight, 0 = coldest.
// Class boundaries closer than minClassGap are merged.
//
// The map depends only on the set count and the bit width, so it is
// computed once per pair and shared by every caller (read-only).
func (p *Profile) Weights(cfg uopcache.Config, bits int) map[uint64]uint8 {
	if bits <= 0 {
		bits = 3
	}
	sets := cfg.Sets()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.weights {
		if m.sets == sets && m.bits == bits {
			return m.w
		}
	}
	w := p.computeWeights(cfg, bits)
	if p.weights == nil {
		p.weights = p.weightsBuf[:0]
	}
	p.weights = append(p.weights, weightsMemo{sets: sets, bits: bits, w: w})
	return w
}

// computeWeights is Weights without the memo.
func (p *Profile) computeWeights(cfg uopcache.Config, bits int) map[uint64]uint8 {
	k := 1 << bits
	// Deterministic order (map iteration is random): collect and sort the
	// start addresses once, then group per set in sorted order.
	allStarts := make([]uint64, 0, len(p.Rates))
	for start := range p.Rates {
		allStarts = append(allStarts, start)
	}
	sort.Slice(allStarts, func(i, j int) bool { return allStarts[i] < allStarts[j] })
	perSet := make(map[int][]uint64)
	sets := make([]int, 0, 64)
	for _, start := range allStarts {
		set := cfg.SetIndex(start)
		if _, seen := perSet[set]; !seen {
			sets = append(sets, set)
		}
		perSet[set] = append(perSet[set], start)
	}
	sort.Ints(sets)
	weights := make(map[uint64]uint8, len(p.Rates))
	for _, set := range sets {
		starts := perSet[set]
		distinct := make(map[float64]struct{})
		vals := make([]float64, 0, len(starts))
		for _, s := range starts {
			v := quantize(p.Rates[s].Value())
			vals = append(vals, v)
			distinct[v] = struct{}{}
		}
		// Jenks over the distinct quantized values only (identical
		// break structure, much smaller DP).
		uniq := make([]float64, 0, len(distinct))
		for v := range distinct {
			uniq = append(uniq, v)
		}
		sort.Float64s(uniq)
		breaks, err := jenks.Breaks(uniq, k)
		if err != nil {
			// Only possible for empty input; skip the set.
			continue
		}
		breaks = enforceGap(breaks, minClassGap)
		for i, s := range starts {
			weights[s] = uint8(jenks.Classify(vals[i], breaks))
		}
	}
	return weights
}

// enforceGap drops class boundaries closer than gap to their predecessor,
// merging statistically indistinguishable classes.
func enforceGap(breaks []float64, gap float64) []float64 {
	out := breaks[:0]
	last := math.Inf(-1)
	for _, b := range breaks {
		if b-last >= gap {
			out = append(out, b)
			last = b
		}
	}
	return out
}

// ThermoClasses derives Thermometer's hot/warm/cold classification from the
// same profile (three Jenks classes over global hit rates). The map is
// computed once and shared by every caller (read-only).
func (p *Profile) ThermoClasses() map[uint64]policy.ThermoClass {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.classes == nil {
		p.classes = p.computeThermoClasses()
	}
	return p.classes
}

// computeThermoClasses is ThermoClasses without the memo.
func (p *Profile) computeThermoClasses() map[uint64]policy.ThermoClass {
	vals := make([]float64, 0, len(p.Rates))
	starts := make([]uint64, 0, len(p.Rates))
	for s := range p.Rates {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	distinct := make(map[float64]struct{})
	for _, s := range starts {
		v := quantize(p.Rates[s].Value())
		vals = append(vals, v)
		distinct[v] = struct{}{}
	}
	uniq := make([]float64, 0, len(distinct))
	for v := range distinct {
		uniq = append(uniq, v)
	}
	sort.Float64s(uniq)
	out := make(map[uint64]policy.ThermoClass, len(starts))
	if len(uniq) == 0 {
		return out
	}
	breaks, err := jenks.Breaks(uniq, 3)
	if err != nil {
		return out
	}
	for i, s := range starts {
		out[s] = policy.ThermoClass(jenks.Classify(vals[i], breaks))
	}
	return out
}

// Save writes the profile in a line-oriented text format:
//
//	uopprofile <source>
//	<start-hex> <hitUops> <totalUops> <lookups>
func (p *Profile) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "uopprofile %s\n", p.Source); err != nil {
		return err
	}
	starts := make([]uint64, 0, len(p.Rates))
	for s := range p.Rates {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, s := range starts {
		r := p.Rates[s]
		if _, err := fmt.Fprintf(bw, "%x %d %d %d\n", s, r.HitUops, r.TotalUops, r.Lookups); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a profile written by Save.
func Load(r io.Reader) (*Profile, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1<<20), 1<<20)
	if !br.Scan() {
		return nil, fmt.Errorf("profiles: empty input")
	}
	var srcName string
	if _, err := fmt.Sscanf(br.Text(), "uopprofile %s", &srcName); err != nil {
		return nil, fmt.Errorf("profiles: bad header %q", br.Text())
	}
	p := &Profile{Rates: make(map[uint64]Rate)}
	switch srcName {
	case "flack":
		p.Source = SourceFLACK
	case "belady":
		p.Source = SourceBelady
	case "foo":
		p.Source = SourceFOO
	default:
		return nil, fmt.Errorf("profiles: unknown source %q", srcName)
	}
	line := 1
	for br.Scan() {
		line++
		var s, h, tot, lk uint64
		if _, err := fmt.Sscanf(br.Text(), "%x %d %d %d", &s, &h, &tot, &lk); err != nil {
			return nil, fmt.Errorf("profiles: line %d: %w", line, err)
		}
		p.Rates[s] = Rate{HitUops: h, TotalUops: tot, Lookups: lk}
	}
	return p, br.Err()
}
