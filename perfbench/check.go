package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"sort"

	"uopsim/internal/core"
	"uopsim/internal/uopcache"
)

// digest hashes a pass's outputs in the order the pass produces them, so two
// passes over the same inputs must print the same hex string.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add appends one labelled output. Every value the benchmark hashes is a
// plain struct of integers and floats, whose %+v form is deterministic.
func (d *digest) add(label string, v any) {
	fmt.Fprintf(d.h, "%s=%+v\n", label, v)
}

// addBytes appends raw output bytes, such as one experiment's CSV.
func (d *digest) addBytes(label string, b []byte) {
	fmt.Fprintf(d.h, "%s:%d\n", label, len(b))
	d.h.Write(b)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// checkStats enforces the accounting identities every Stats must satisfy: a
// lookup is a full hit, a partial hit or a miss, and every requested micro-op
// is either hit or missed.
func checkStats(s uopcache.Stats) error {
	if s.Lookups != s.FullHits+s.PartialHits+s.Misses {
		return fmt.Errorf("lookups %d != full %d + partial %d + misses %d",
			s.Lookups, s.FullHits, s.PartialHits, s.Misses)
	}
	if s.UopsRequested != s.UopsHit+s.UopsMissed {
		return fmt.Errorf("uops requested %d != hit %d + missed %d",
			s.UopsRequested, s.UopsHit, s.UopsMissed)
	}
	return nil
}

// goldenFile mirrors internal/core/testdata/golden_stats.json, the pinned
// behaviour of every policy on small kafka and postgres traces.
type goldenFile struct {
	Blocks  int `json:"blocks"`
	Entries []struct {
		Policy string         `json:"policy"`
		App    string         `json:"app"`
		ICache bool           `json:"icache"`
		Stats  uopcache.Stats `json:"stats"`
	} `json:"entries"`
	TimingIPC map[string]string `json:"timing_ipc"`
}

// checkGolden recomputes every cell of the golden file through core and
// reports the first one that differs. A simulator that fails this check is
// not timed: its speed would describe a different program.
func checkGolden(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read golden stats: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return fmt.Errorf("parse golden stats %s: %w", path, err)
	}
	if len(g.Entries) == 0 || len(g.TimingIPC) == 0 {
		return fmt.Errorf("golden stats %s holds no entries", path)
	}
	cfg := core.DefaultConfig()
	traces := map[string]*appTrace{}
	load := func(app string) (*appTrace, error) {
		if t, ok := traces[app]; ok {
			return t, nil
		}
		blocks, pws, err := core.TraceFor(app, g.Blocks, 0)
		if err != nil {
			return nil, err
		}
		t := &appTrace{blocks: blocks, pws: pws}
		traces[app] = t
		return t, nil
	}
	for _, e := range g.Entries {
		t, err := load(e.App)
		if err != nil {
			return err
		}
		r, err := core.RunBehaviorByName(e.Policy, t.pws, cfg, core.BehaviorOptions{WithICache: e.ICache, Workers: 1})
		if err != nil {
			return err
		}
		if r.Stats != e.Stats {
			return fmt.Errorf("golden %s/%s icache=%v: got %+v, want %+v", e.Policy, e.App, e.ICache, r.Stats, e.Stats)
		}
	}
	t, err := load("kafka")
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(g.TimingIPC) {
		tr, err := core.RunTimingByName(name, t.blocks, t.pws, cfg, nil)
		if err != nil {
			return err
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%.12g/%.12g", tr.Frontend.IPC(), tr.PPW)))
		if got := hex.EncodeToString(sum[:8]); got != g.TimingIPC[name] {
			return fmt.Errorf("golden timing %s: hash %s, want %s", name, got, g.TimingIPC[name])
		}
	}
	return nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
