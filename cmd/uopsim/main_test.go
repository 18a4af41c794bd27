package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunModes drives the CLI end to end in both modes on a short kafka
// run, under an online policy and under the offline FLACK plan, and checks
// the exit status and the key report lines.
func TestRunModes(t *testing.T) {
	for _, tc := range []struct {
		mode string
		want []string
	}{
		{"behavior", []string{"mode=behavior", "lookups=", "uop-miss-rate=", "insertions="}},
		{"timing", []string{"mode=timing", "IPC=", "uop-miss-rate=", "energy (pJ):", "performance-per-watt="}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			for _, pol := range []string{"lru", "flack"} {
				t.Run(pol, func(t *testing.T) {
					var stdout, stderr bytes.Buffer
					args := []string{"-app", "kafka", "-policy", pol, "-mode", tc.mode, "-blocks", "3000"}
					if code := runMain(args, &stdout, &stderr); code != 0 {
						t.Fatalf("exit %d: %s", code, stderr.String())
					}
					for _, w := range tc.want {
						if !strings.Contains(stdout.String(), w) {
							t.Errorf("output lacks %q:\n%s", w, stdout.String())
						}
					}
				})
			}
		})
	}
}

// TestUnknownPolicy is a usage error (exit 2) caught before any work.
func TestUnknownPolicy(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runMain([]string{"-policy", "nope", "-blocks", "3000"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown policy still simulated:\n%s", stdout.String())
	}
}
