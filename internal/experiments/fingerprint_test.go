package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update-fingerprints regenerates testdata/campaign_fingerprints.json from
// the current implementation. Only do this when a change to the campaign's
// figures is intentional; refactors must leave the file untouched.
var updateFingerprints = flag.Bool("update-fingerprints", false, "rewrite testdata/campaign_fingerprints.json")

// campaignIDs is the nine-CSV figure campaign of EXPERIMENTS.md.
var campaignIDs = []string{"tab1", "tab2", "fig2", "fig8", "fig10", "fig12", "fig14", "fig18", "fig21"}

// TestCampaignFingerprints pins the SHA-256 of every campaign CSV on the
// small context, serially. Unlike TestGoldenStats it covers the
// non-default geometries of fig12 and the profile and timing paths the
// figures take through the shared Context caches.
func TestCampaignFingerprints(t *testing.T) {
	ctx := smallCtx()
	ctx.Workers = 1
	got := map[string]string{}
	for _, r := range RunMany(ctx, campaignIDs, nil) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		var buf bytes.Buffer
		if err := r.Table.CSV(&buf); err != nil {
			t.Fatalf("%s: CSV: %v", r.ID, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[r.ID] = hex.EncodeToString(sum[:])
	}
	path := filepath.Join("testdata", "campaign_fingerprints.json")
	if *updateFingerprints {
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
		t.Logf("wrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fingerprints (regenerate with -update-fingerprints): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse fingerprints: %v", err)
	}
	for _, id := range campaignIDs {
		if got[id] != want[id] {
			t.Errorf("%s.csv changed: sha256 %s, want %s", id, got[id], want[id])
		}
	}
}
