// Command benchdiff turns `go test -bench` output into a committed JSON
// snapshot and diffs snapshots against a baseline with a configurable
// regression threshold — the CI tripwire for the repo's performance
// contract.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | benchdiff -write benchdiff_2026-08-08.json
//	benchdiff -baseline testdata/bench_baseline.json -current benchdiff_2026-08-08.json \
//	          -threshold 30 [-allocs-threshold 0]
//	go test -bench=. -benchmem -run='^$' . | benchdiff -baseline testdata/bench_baseline.json
//
// -write parses benchmark output on stdin (or -in FILE) and writes the
// snapshot. -baseline compares: a benchmark regresses when its ns/op exceeds
// the baseline by more than -threshold percent, or its allocs/op exceeds the
// baseline by more than -allocs-threshold allocations (default 0: any
// added allocation on a measured path is a regression — wall-clock is noisy
// on shared runners, allocation counts are exact). Exit status 1 on any
// regression, 2 on a bad invocation.
//
// Benchmark names are normalized by stripping the -N GOMAXPROCS suffix, so
// snapshots from machines with different core counts compare.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's measurement.
type Result struct {
	N           int64   `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// HasAllocs distinguishes "0 allocs/op" from "run without -benchmem".
	HasAllocs bool `json:"has_allocs,omitempty"`
}

// Snapshot is the committed benchmark record.
type Snapshot struct {
	Date       string            `json:"date,omitempty"`
	GoVersion  string            `json:"go_version,omitempty"`
	GOOS       string            `json:"goos,omitempty"`
	GOARCH     string            `json:"goarch,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func runMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		write     = fs.String("write", "", "parse `go test -bench` output and write the snapshot to `FILE`")
		in        = fs.String("in", "", "read benchmark output from `FILE` instead of stdin")
		baseline  = fs.String("baseline", "", "compare against the snapshot in `FILE`")
		current   = fs.String("current", "", "compare the snapshot in `FILE` (default: parse stdin/-in)")
		threshold = fs.Float64("threshold", 30, "ns/op regression threshold in `percent` over baseline")
		allocsTh  = fs.Int64("allocs-threshold", 0, "allocs/op regression threshold in `allocations` over baseline")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *write == "" && *baseline == "" {
		fmt.Fprintln(stderr, "benchdiff: nothing to do: give -write and/or -baseline")
		return 2
	}
	if *threshold < 0 || *allocsTh < 0 {
		fmt.Fprintln(stderr, "benchdiff: thresholds must be >= 0")
		return 2
	}

	var cur *Snapshot
	var err error
	if *current != "" {
		cur, err = readSnapshot(*current)
	} else {
		src := stdin
		if *in != "" {
			f, ferr := os.Open(*in)
			if ferr != nil {
				fmt.Fprintln(stderr, "benchdiff:", ferr)
				return 2
			}
			defer f.Close()
			src = f
		}
		cur, err = Parse(src)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if len(cur.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchdiff: no benchmark results found")
		return 2
	}

	if *write != "" {
		if err := writeSnapshot(*write, cur); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchdiff: %d benchmark(s) written to %s\n", len(cur.Benchmarks), *write)
	}
	if *baseline == "" {
		return 0
	}
	base, err := readSnapshot(*baseline)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	regressions := Compare(base, cur, *threshold, *allocsTh, stdout)
	if regressions > 0 {
		fmt.Fprintf(stdout, "benchdiff: %d regression(s) against %s\n", regressions, *baseline)
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: no regressions against %s\n", *baseline)
	return 0
}

// Parse reads `go test -bench` output and collects one Result per benchmark.
// A benchmark that appears multiple times (e.g. -count) keeps its best
// (lowest) ns/op, reducing noise-driven false regressions.
func Parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: map[string]Result{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		name, res, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if prev, seen := snap.Benchmarks[name]; !seen || res.NsPerOp < prev.NsPerOp {
			snap.Benchmarks[name] = res
		}
	}
	return snap, sc.Err()
}

// parseLine parses one benchmark result line:
//
//	BenchmarkUopCacheLRU-8  1000  1234567 ns/op  123 B/op  4 allocs/op
func parseLine(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	name := normalizeName(fields[0])
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	res := Result{N: n}
	ok := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
			ok = true
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
			res.HasAllocs = true
		}
	}
	return name, res, ok
}

// normalizeName strips the trailing -N GOMAXPROCS suffix.
func normalizeName(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Compare reports every regression of cur against base to w and returns the
// regression count. Benchmarks present only on one side are reported as
// informational, not as regressions (renames should update the baseline, not
// break CI).
func Compare(base, cur *Snapshot, thresholdPct float64, allocsTh int64, w io.Writer) int {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "MISSING %s: in baseline but not in current run\n", name)
			continue
		}
		if b.NsPerOp > 0 {
			ratio := c.NsPerOp / b.NsPerOp
			limit := 1 + thresholdPct/100
			if ratio > limit {
				regressions++
				fmt.Fprintf(w, "REGRESSION %s: %.0f ns/op vs %.0f baseline (%.2fx > %.2fx limit)\n",
					name, c.NsPerOp, b.NsPerOp, ratio, limit)
			}
		}
		if b.HasAllocs && c.HasAllocs && c.AllocsPerOp > b.AllocsPerOp+allocsTh {
			regressions++
			fmt.Fprintf(w, "REGRESSION %s: %d allocs/op vs %d baseline (threshold +%d)\n",
				name, c.AllocsPerOp, b.AllocsPerOp, allocsTh)
		}
	}
	extra := make([]string, 0)
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "NEW %s: not in baseline (add it with -write)\n", name)
	}
	return regressions
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Benchmarks == nil {
		return nil, fmt.Errorf("%s: no benchmarks key", path)
	}
	return &s, nil
}

func writeSnapshot(path string, s *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(s)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
