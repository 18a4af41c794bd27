package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/offline"
	"uopsim/internal/telemetry"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// -update-events regenerates testdata/event_stream.json. Like the golden
// Stats, it is rewritten only for a deliberate behaviour change.
var updateEvents = flag.Bool("update-events", false, "rewrite testdata/event_stream.json")

// eventPinBlocks is the trace length the event-stream pin runs at.
const eventPinBlocks = 3000

// eventPinFile maps each cell ("app/geometry/policy[/icache]") to the
// SHA-256 of its decision trace: every telemetry.Event as JSON, in order,
// then the run's Stats as JSON.
type eventPinFile struct {
	Blocks int               `json:"blocks"`
	Cells  map[string]string `json:"cells"`
}

// hashSink folds each event into a running SHA-256 as it is emitted.
type hashSink struct {
	h   hash.Hash
	enc *json.Encoder
}

func newHashSink() *hashSink {
	h := sha256.New()
	return &hashSink{h: h, enc: json.NewEncoder(h)}
}

func (s *hashSink) Emit(e telemetry.Event) {
	if err := s.enc.Encode(e); err != nil {
		panic(err)
	}
}

// TestEventStreamPin pins the full decision trace — every hit, miss,
// insertion, bypass, eviction (with its victim, reason, score and age) and
// invalidation — of the 12 policies on the 11 apps, with and without the
// inclusive L1i, at the default geometry and under compaction. Golden Stats
// would miss a change that swaps two victims of equal cost or moves a
// decision's stated score; this pin does not. The inclusive cells cut the
// L1i to 8 KB: at its default 32 KB these traces evict no line that still
// holds a resident window, and the cells would repeat the perfect-L1i ones.
// Under the race detector it checks the cells of three apps.
func TestEventStreamPin(t *testing.T) {
	path := filepath.Join("testdata", "event_stream.json")
	apps := workload.Names()
	if raceEnabled {
		if *updateEvents {
			t.Fatal("-update-events needs every cell; run it without -race")
		}
		apps = apps[:3]
	}
	var want eventPinFile
	if !*updateEvents {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read pin (regenerate with -update-events): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("parse pin: %v", err)
		}
		if want.Blocks != eventPinBlocks {
			t.Fatalf("pin generated at %d blocks, test runs %d", want.Blocks, eventPinBlocks)
		}
	}
	geometries := []struct {
		name       string
		compaction bool
	}{{"default", false}, {"compaction", true}}
	names := append(core.PolicyNames(), core.OfflineNames()...)
	got := eventPinFile{Blocks: eventPinBlocks, Cells: map[string]string{}}
	var invalidated uint64
	for _, app := range apps {
		_, pws, err := core.TraceFor(app, eventPinBlocks, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range geometries {
			cfg := core.DefaultConfig()
			cfg.UopCache.Compaction = g.compaction
			cfg.L1I.SizeBytes = 8 << 10
			pt := uopcache.Prepare(cfg.UopCache, pws)
			plans := &memPlans{m: map[string]*offline.Decisions{}}
			for _, withIC := range []bool{false, true} {
				for _, name := range names {
					cell := app + "/" + g.name + "/" + name
					if withIC {
						cell += "/icache"
					}
					sink := newHashSink()
					res, err := core.RunBehaviorByName(name, pws, cfg, core.BehaviorOptions{
						WithICache: withIC, Telemetry: core.Telemetry{Events: sink},
						Prepared: pt, Plans: plans, Workers: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					invalidated += res.Stats.Invalidations
					if err := sink.enc.Encode(res.Stats); err != nil {
						t.Fatal(err)
					}
					got.Cells[cell] = hex.EncodeToString(sink.h.Sum(nil))
					if !*updateEvents && got.Cells[cell] != want.Cells[cell] {
						t.Errorf("%s: event stream %s, pinned %s", cell, got.Cells[cell], want.Cells[cell])
					}
				}
			}
		}
	}
	if *updateEvents {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", path, len(got.Cells))
		return
	}
	if !raceEnabled && len(want.Cells) != len(got.Cells) {
		t.Errorf("pin has %d cells, this run %d", len(want.Cells), len(got.Cells))
	}
	if invalidated == 0 {
		t.Error("the inclusive L1i invalidated no window: its cells repeat the perfect-L1i ones")
	}
}
