package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uopsim/internal/telemetry"
)

// TestColdWarmCacheEquivalence is the artifact cache's end-to-end contract:
// a small figure campaign run with -cache-dir cold (empty cache), then warm
// (same cache), then with no cache at all, must emit byte-identical CSVs —
// the cache changes only how fast artifacts materialize. The warm run must
// actually be served from the cache: plan_cache_hit_total > 0 and the
// manifest's cache block records the traffic. The cold run's dump carries
// the offline segment counters.
func TestColdWarmCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three small campaigns")
	}
	tmp := t.TempDir()
	cacheDir := filepath.Join(tmp, "cache")
	ids := []string{"tab2", "fig10"}
	campaign := func(label string, cached bool) (csvDir, metricsPath string) {
		t.Helper()
		csvDir = filepath.Join(tmp, label)
		metricsPath = filepath.Join(tmp, label+".metrics")
		args := []string{
			"-blocks", "2500", "-apps", "kafka,postgres", "-quiet",
			"-csv", csvDir, "-telemetry", metricsPath,
		}
		if cached {
			args = append(args, "-cache-dir", cacheDir)
		}
		args = append(args, ids...)
		if code := runMain(args, io.Discard, os.Stderr); code != 0 {
			t.Fatalf("%s campaign exited %d", label, code)
		}
		return csvDir, metricsPath
	}

	coldDir, coldMetrics := campaign("cold", true)
	warmDir, warmMetrics := campaign("warm", true)
	plainDir, _ := campaign("plain", false)

	for _, id := range ids {
		cold := readFileT(t, filepath.Join(coldDir, id+".csv"))
		warm := readFileT(t, filepath.Join(warmDir, id+".csv"))
		plain := readFileT(t, filepath.Join(plainDir, id+".csv"))
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s.csv: cold and warm runs differ", id)
		}
		if !bytes.Equal(cold, plain) {
			t.Errorf("%s.csv: cached and uncached runs differ", id)
		}
	}

	// The cold run solved plans, and its dump counts the segments planned
	// and those that needed a flow solve.
	cold := string(readFileT(t, coldMetrics))
	for _, name := range []string{"offline_segments_total", "offline_segments_solved_total"} {
		if !counterPositive(cold, name) {
			t.Errorf("cold run: %s not positive in metrics:\n%s", name, cold)
		}
	}

	// The warm run must have been served from the cache.
	metrics := string(readFileT(t, warmMetrics))
	if !counterPositive(metrics, "plan_cache_hit_total") {
		t.Errorf("warm run: plan_cache_hit_total not positive in metrics:\n%s", metrics)
	}

	// The manifests record cache provenance: dir plus per-kind traffic —
	// misses cold, hits warm.
	coldMan := readManifest(t, filepath.Join(coldDir, "run.json"))
	warmMan := readManifest(t, filepath.Join(warmDir, "run.json"))
	if coldMan.Cache == nil || warmMan.Cache == nil {
		t.Fatal("cached runs did not record a manifest cache block")
	}
	if coldMan.Cache.Dir != cacheDir {
		t.Errorf("cold manifest cache dir = %q, want %q", coldMan.Cache.Dir, cacheDir)
	}
	// Cold: every first use of a key misses (a second use inside the same
	// run may already hit the entry the first one stored). Warm: everything
	// is served from the cache — hits only, not a single solve or generate.
	if k := coldMan.Cache.Kinds["plan"]; k.Misses == 0 {
		t.Errorf("cold plan traffic = %+v, want misses", k)
	}
	if k := warmMan.Cache.Kinds["plan"]; k.Hits == 0 || k.Misses != 0 {
		t.Errorf("warm plan traffic = %+v, want hits only", k)
	}
	plainMan := readManifest(t, filepath.Join(plainDir, "run.json"))
	if plainMan.Cache != nil {
		t.Error("uncached run recorded a cache block")
	}
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readManifest(t *testing.T, path string) *telemetry.RunManifest {
	t.Helper()
	var m telemetry.RunManifest
	if err := json.Unmarshal(readFileT(t, path), &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return &m
}

// counterPositive reports whether a Prometheus-text counter has a value
// greater than zero.
func counterPositive(metrics, name string) bool {
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name && fields[1] != "0" {
			return true
		}
	}
	return false
}
