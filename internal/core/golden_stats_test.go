package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/uopcache"
)

// -update-golden regenerates testdata/golden_stats.json from the current
// implementation. Only do this when a simulator-visible behaviour change is
// intentional; performance work must leave the file untouched.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.json")

// goldenEntry pins one (policy, app, config) cell of the behaviour simulator.
type goldenEntry struct {
	Policy string         `json:"policy"`
	App    string         `json:"app"`
	ICache bool           `json:"icache"`
	Stats  uopcache.Stats `json:"stats"`
}

type goldenFile struct {
	// Blocks is the trace length the entries were generated at.
	Blocks  int           `json:"blocks"`
	Entries []goldenEntry `json:"entries"`
	// TimingIPC pins the timing model per policy (app kafka, same trace).
	TimingIPC map[string]string `json:"timing_ipc"`
}

const goldenBlocks = 4000

// collectGolden runs every online and offline policy over small kafka and
// postgres traces, with and without the inclusive L1i, and hashes a few
// timing-mode IPC figures. Together these pin the exact decision sequence of
// the cache, every policy, and the offline solver: any change to eviction
// order, tie-breaking, or flow routing shifts at least one counter.
func collectGolden(t *testing.T) goldenFile {
	t.Helper()
	out := goldenFile{Blocks: goldenBlocks, TimingIPC: map[string]string{}}
	cfg := core.DefaultConfig()
	names := append(append([]string{}, core.PolicyNames()...), core.OfflineNames()...)
	for _, app := range []string{"kafka", "postgres"} {
		_, pws, err := core.TraceFor(app, goldenBlocks, 0)
		if err != nil {
			t.Fatalf("TraceFor(%s): %v", app, err)
		}
		for _, name := range names {
			for _, ic := range []bool{false, true} {
				r, err := core.RunBehaviorByName(name, pws, cfg, core.BehaviorOptions{WithICache: ic, Workers: 1})
				if err != nil {
					t.Fatalf("RunBehaviorByName(%s, %s): %v", name, app, err)
				}
				out.Entries = append(out.Entries, goldenEntry{Policy: name, App: app, ICache: ic, Stats: r.Stats})
			}
		}
	}
	blocks, pws, err := core.TraceFor("kafka", goldenBlocks, 0)
	if err != nil {
		t.Fatalf("TraceFor(kafka): %v", err)
	}
	_ = pws
	for _, name := range []string{"lru", "furbys", "belady", "foo", "flack"} {
		tr, err := core.RunTimingByName(name, blocks, pws, cfg, nil)
		if err != nil {
			t.Fatalf("RunTimingByName(%s): %v", name, err)
		}
		// Hash the IPC text rather than storing a float: identical runs
		// produce identical bits, and a hash diff is unambiguous.
		sum := sha256.Sum256([]byte(fmt.Sprintf("%.12g/%.12g", tr.Frontend.IPC(), tr.PPW)))
		out.TimingIPC[name] = hex.EncodeToString(sum[:8])
	}
	return out
}

// TestGoldenStats locks the simulator's observable behaviour to the
// committed snapshot: the dense slot-indexed hot path (and any future
// optimization) must reproduce the exact hit/miss/eviction counts of the
// map-based implementation it replaced.
func TestGoldenStats(t *testing.T) {
	path := filepath.Join("testdata", "golden_stats.json")
	got := collectGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", path, len(got.Entries))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if want.Blocks != got.Blocks {
		t.Fatalf("golden generated at %d blocks, test runs %d", want.Blocks, got.Blocks)
	}
	if len(want.Entries) != len(got.Entries) {
		t.Fatalf("golden has %d entries, current run produced %d", len(want.Entries), len(got.Entries))
	}
	for i, w := range want.Entries {
		g := got.Entries[i]
		if w != g {
			t.Errorf("behaviour diverged at %s/%s icache=%v:\n  want %+v\n  got  %+v", w.Policy, w.App, w.ICache, w.Stats, g.Stats)
		}
	}
	for name, w := range want.TimingIPC {
		if g := got.TimingIPC[name]; g != w {
			t.Errorf("timing model diverged for %s: hash %s != golden %s", name, g, w)
		}
	}
}
