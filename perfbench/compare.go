package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain reads one or two sets of run records (JSONL written by
// --record) and prints, per workload and end-to-end metric, each set's
// median and quartiles, the spread, the change between the sets and the
// verdict against the bounds in BENCHMARK.json. It exits 1 when any verdict
// fails.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(out)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	passes := fs.Bool("passes", false, "also print every run's pass times in index order")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(out, "usage: perfbench compare [-bench BENCHMARK.json] [-passes] A.jsonl [B.jsonl]")
		return 2
	}
	spec, err := loadSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(out, "perfbench compare:", err)
		return 1
	}
	var sets [][]runRecord
	for _, path := range fs.Args() {
		recs, err := loadRecords(path)
		if err != nil {
			fmt.Fprintln(out, "perfbench compare:", err)
			return 1
		}
		sets = append(sets, recs)
	}
	ok := report(out, spec, sets)
	if *passes {
		for i, set := range sets {
			for _, r := range set {
				fmt.Fprintf(out, "set %d %s seed %d:", i+1, r.Workload, r.Seed)
				for _, p := range r.Passes {
					fmt.Fprintf(out, " %d:%.1f", p.Index, p.Ms)
				}
				fmt.Fprintln(out)
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 {
		return s, fmt.Errorf("%s lists no end_to_end metrics", path)
	}
	return s, nil
}

// loadRecords reads the untraced run records of a JSONL file.
func loadRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, errors.New(path + ": no untraced run records")
	}
	return recs, nil
}

// report prints the steadiness table and returns whether every verdict
// passed: each set's spread within the bound (setup_s excepted), the second
// set's median no worse than the first's by more than the bound, no failed
// pass, and one output digest per (workload, seed) across all sets.
func report(w io.Writer, spec benchSpec, sets [][]runRecord) bool {
	ok := true
	fmt.Fprintf(w, "%-9s %-18s %-4s %12s %12s %12s %8s %9s  %s\n",
		"workload", "metric", "set", "q1", "median", "q3", "spread", "change", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			var meds []float64
			for si, set := range sets {
				var vals []float64
				for _, r := range set {
					if v, has := r.Result.Metrics[m.Name]; has && r.Workload == wl.name {
						vals = append(vals, v.Value)
					}
				}
				if len(vals) == 0 {
					continue
				}
				s := summarize(vals)
				meds = append(meds, s.Median)
				verdict := "ok"
				switch {
				case m.Name != "setup_s" && s.spread() > m.Bound:
					verdict, ok = "SPREAD>bound", false
				case m.Name != "setup_s" && s.spread() > m.Bound/3:
					verdict = "spread>bound/3"
				}
				change := ""
				if si > 0 && len(meds) == 2 && meds[0] != 0 {
					d := (meds[1] - meds[0]) / meds[0]
					change = fmt.Sprintf("%+.2f%%", 100*d)
					if m.Better == "higher" {
						d = -d
					}
					if d > m.Bound {
						verdict, ok = "WORSE>bound", false
					}
				}
				fmt.Fprintf(w, "%-9s %-18s %-4d %12.4f %12.4f %12.4f %7.2f%% %9s  %s (n=%d, bound %.0f%%)\n",
					wl.name, m.Name, si+1, s.Q1, s.Median, s.Q3, 100*s.spread(), change, verdict, s.N, 100*m.Bound)
			}
		}
	}
	digests := map[string]string{}
	for si, set := range sets {
		for _, r := range set {
			if r.Result.Failed > 0 || !r.Result.Correct {
				fmt.Fprintf(w, "set %d %s seed %d: %d of %d passes failed: %v\n",
					si+1, r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted, r.Errors)
				ok = false
			}
			key := fmt.Sprintf("%s/%d", r.Workload, r.Seed)
			if d, seen := digests[key]; seen && d != r.Digest {
				fmt.Fprintf(w, "set %d %s seed %d: digest %s differs from %s\n", si+1, r.Workload, r.Seed, r.Digest, d)
				ok = false
			}
			digests[key] = r.Digest
		}
	}
	fmt.Fprintf(w, "digests: %d (workload, seed) pairs checked\n", len(digests))
	return ok
}
