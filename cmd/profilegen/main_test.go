package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"uopsim/internal/profiles"
)

// TestTraceRoundTrip builds tracegen, has it write a small kafka trace, and
// profiles that file: the hint map must be byte-identical to the one
// profiled from the same trace generated in memory.
func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool not on PATH: %v", err)
	}
	tracegen := filepath.Join(dir, "tracegen")
	if out, err := exec.Command(goTool, "build", "-o", tracegen, "uopsim/cmd/tracegen").CombinedOutput(); err != nil {
		t.Fatalf("build tracegen: %v\n%s", err, out)
	}
	tr := filepath.Join(dir, "kafka.trace")
	if out, err := exec.Command(tracegen, "-app", "kafka", "-blocks", "3000", "-o", tr).CombinedOutput(); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, out)
	}

	fromFile, inMemory := filepath.Join(dir, "file.prof"), filepath.Join(dir, "mem.prof")
	for _, args := range [][]string{
		{"-trace", tr, "-o", fromFile},
		{"-app", "kafka", "-blocks", "3000", "-o", inMemory},
	} {
		var stdout, stderr bytes.Buffer
		if code := runMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "with flack; wrote") {
			t.Errorf("%v: report line missing:\n%s", args, stdout.String())
		}
	}
	got, err := os.ReadFile(fromFile)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(inMemory)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("profile of the trace file differs from the in-memory profile")
	}
	prof, err := profiles.Load(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Rates) == 0 {
		t.Error("empty hint map")
	}
}

// TestBadFlags are usage errors (exit 2) caught before any output is written.
func TestBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.prof")
	for _, args := range [][]string{
		{"-nope"},
		{"-app", "kafka"},
		{"-o", out},
		{"-app", "kafka", "-source", "nope", "-o", out},
		{"-app", "kafka", "-blocks", "-1", "-o", out},
	} {
		var stdout, stderr bytes.Buffer
		if code := runMain(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2: %s", args, code, stderr.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("%v: wrote %s", args, out)
		}
	}
}
