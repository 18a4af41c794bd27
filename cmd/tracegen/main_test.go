package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/trace"
)

// TestWritesTrace writes a small kafka trace and reads it back: the file
// holds exactly the blocks the workload generator produces.
func TestWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kafka.trace")
	var stdout, stderr bytes.Buffer
	args := []string{"-app", "kafka", "-blocks", "2000", "-o", path}
	if code := runMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := trace.ReadBlocks(f)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.TraceFor("kafka", 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("trace file differs from the generated blocks")
	}
	if line := fmt.Sprintf("wrote %d blocks", len(want)); !strings.Contains(stdout.String(), line) {
		t.Errorf("output lacks %q:\n%s", line, stdout.String())
	}
}

// TestBadFlags are usage errors (exit 2) caught before any output is written.
func TestBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.trace")
	for _, args := range [][]string{
		{"-nope"},
		{"-app", "kafka"},
		{"-app", "nope", "-o", out},
		{"-blocks", "0", "-o", out},
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
