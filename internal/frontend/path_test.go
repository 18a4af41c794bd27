package frontend_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"uopsim/internal/backend"
	"uopsim/internal/branch"
	"uopsim/internal/cache"
	"uopsim/internal/frontend"
	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// pathCase is one policy-dependent run over a path: a frontend config and a
// micro-op cache geometry.
type pathCase struct {
	name string
	cfg  frontend.Config
	geom uopcache.Config
}

func pathCases() []pathCase {
	def := frontend.DefaultConfig()
	with := func(f func(*frontend.Config)) frontend.Config {
		c := def
		f(&c)
		return c
	}
	geom := uopcache.DefaultConfig()
	big := geom
	big.Entries, big.Ways = 1024, 16
	small := geom
	small.Entries, small.Ways = 256, 4
	return []pathCase{
		{"default", def, geom},
		{"PerfectUopCache", with(func(c *frontend.Config) { c.PerfectUopCache = true }), geom},
		{"PerfectICache", with(func(c *frontend.Config) { c.PerfectICache = true }), geom},
		{"PerfectBP", with(func(c *frontend.Config) { c.PerfectBP = true }), geom},
		{"PerfectBTB", with(func(c *frontend.Config) { c.PerfectBTB = true }), geom},
		{"DisableUopCache", with(func(c *frontend.Config) { c.DisableUopCache = true }), geom},
		{"NonInclusive", with(func(c *frontend.Config) { c.NonInclusive = true }), geom},
		{"1024x16", def, big},
		{"256x4", def, small},
	}
}

// runCase runs one case over p with fresh caches, as core.RunTiming wires
// them, but with an 8 KiB L1i so that inclusion evicts windows.
func runCase(tc pathCase, p *frontend.Path) frontend.Result {
	uc := uopcache.New(tc.geom, policy.NewLRU())
	var l1i *cache.Cache
	if !tc.cfg.PerfectICache {
		l1i = cache.New(cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 1})
	}
	return frontend.New(tc.cfg, uc, l1i).Run(p)
}

// TestPathReuseIsExact: one path, walked under every perfect-structure
// switch, the disabled and non-inclusive micro-op cache and two other
// geometries, serially and from two goroutines at once, gives each run the
// Result a freshly built path gives it.
func TestPathReuseIsExact(t *testing.T) {
	spec, _ := workload.Get("clang")
	blocks := workload.GenerateSpec(spec, 8000, 0)
	pws := trace.FormPWs(blocks, 0)
	cases := pathCases()
	want := make([]frontend.Result, len(cases))
	for i, tc := range cases {
		want[i] = runCase(tc, newPath(blocks, pws))
	}
	for i := 1; i < len(want); i++ {
		if reflect.DeepEqual(want[i], want[0]) {
			t.Errorf("%s gives the default's Result; the case tests nothing", cases[i].name)
		}
	}

	shared := newPath(blocks, pws)
	for i, tc := range cases {
		if got := runCase(tc, shared); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s over the shared path (serial):\n got %+v\nwant %+v", tc.name, got, want[i])
		}
	}
	var wg sync.WaitGroup
	got := make([][]frontend.Result, 2)
	for g := range got {
		got[g] = make([]frontend.Result, len(cases))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, tc := range cases {
				got[g][i] = runCase(tc, shared)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, tc := range cases {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Errorf("%s over the shared path (goroutine %d):\n got %+v\nwant %+v", tc.name, g, got[g][i], want[i])
			}
		}
	}
}

// TestPathFor: a path is for exactly the slices and configs it was built
// over.
func TestPathFor(t *testing.T) {
	spec, _ := workload.Get("kafka")
	blocks := workload.GenerateSpec(spec, 2000, 0)
	pws := trace.FormPWs(blocks, 0)
	bcfg, becfg := branch.DefaultConfig(), backend.DefaultConfig()
	p := frontend.NewPath(blocks, pws, bcfg, becfg)
	if !p.For(blocks, pws, branch.DefaultConfig(), backend.DefaultConfig()) {
		t.Error("a path is not for the slices and configs it was built over")
	}
	var nilPath *frontend.Path
	if nilPath.For(blocks, pws, bcfg, becfg) {
		t.Error("a nil path claims a trace")
	}
	copied := append([]trace.PW(nil), pws...)
	hist := branch.DefaultConfig()
	hist.HistLens[0]++
	wider := backend.DefaultConfig()
	wider.Width++
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"other window slice", p.For(blocks, copied, bcfg, becfg)},
		{"shorter block slice", p.For(blocks[:len(blocks)-1], pws, bcfg, becfg)},
		{"other history lengths", p.For(blocks, pws, hist, becfg)},
		{"other backend", p.For(blocks, pws, bcfg, wider)},
	} {
		if tc.ok {
			t.Errorf("%s: the path claims it", tc.name)
		}
	}
	// The path keeps its own copy of the history lengths.
	bcfg.HistLens[0]++
	if !p.For(blocks, pws, branch.DefaultConfig(), becfg) {
		t.Error("mutating the caller's HistLens changed the path's config")
	}
}

// TestNewPathRejectsStallOverflow: a window whose data-side stall does not
// fit the path's encoding panics in NewPath rather than being truncated.
func TestNewPathRejectsStallOverflow(t *testing.T) {
	blocks := loopTrace(4, 8)
	becfg := backend.DefaultConfig()
	becfg.Overlap, becfg.DRAMLatency = 1, 1<<20
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "more than a path holds") {
			t.Errorf("NewPath panicked with %v, want a stall overflow", r)
		}
	}()
	frontend.NewPath(blocks, trace.FormPWs(blocks, 0), branch.DefaultConfig(), becfg)
}
