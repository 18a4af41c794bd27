// Command profilegen runs the FURBYS offline pipeline (paper Fig. 6, STEPS
// 2–6): it reads or generates an application trace, replays it under an
// offline policy (FLACK by default), computes per-window hit rates, and
// writes the profile that NewFURBYS-based deployments consume.
//
// Usage:
//
//	profilegen -app kafka -blocks 100000 -o kafka.prof
//	profilegen -trace kafka.trace -o kafka.prof -source belady
//	           [-telemetry FILE] [-events FILE -sample N] [-serve ADDR] [-progress]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"uopsim/internal/core"
	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/workload"
)

// usageError marks a command-line mistake: exit code 2 instead of 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	err := run(args, stdout, stderr)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	default:
		fmt.Fprintln(stderr, "profilegen:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("profilegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app      = fs.String("app", "", "application to generate a trace for: "+strings.Join(workload.Names(), ", "))
		traceIn  = fs.String("trace", "", "existing trace file (alternative to -app)")
		blocks   = fs.Int("blocks", 100000, "dynamic blocks when generating")
		input    = fs.Int("input", 0, "input variant when generating")
		source   = fs.String("source", "flack", "offline decision source: flack, belady, foo")
		out      = fs.String("o", "", "output profile file (required)")
		progress = fs.Bool("progress", false, "print phase status lines to stderr")
	)
	var obs telemetry.CLI
	obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if *out == "" {
		return usageError{errors.New("-o is required")}
	}
	if *blocks <= 0 {
		return usageError{fmt.Errorf("-blocks must be positive (got %d)", *blocks)}
	}
	var src profiles.Source
	switch *source {
	case "flack":
		src = profiles.SourceFLACK
	case "belady":
		src = profiles.SourceBelady
	case "foo":
		src = profiles.SourceFOO
	default:
		return usageError{fmt.Errorf("unknown source %q", *source)}
	}
	if *traceIn == "" && *app == "" {
		return usageError{errors.New("need -app or -trace")}
	}
	if err := obs.Start(); err != nil {
		return err
	}
	var prog *telemetry.Progress
	if *progress {
		prog = telemetry.NewProgress(stderr)
	}

	var pws []trace.PW
	start := time.Now()
	name := *app
	if *traceIn != "" {
		blks, err := readTrace(*traceIn)
		if err != nil {
			return err
		}
		pws = trace.FormPWs(blks, 0)
		name = *traceIn
	} else {
		_, p, err := core.TraceFor(*app, *blocks, *input)
		if err != nil {
			return err
		}
		pws = p
	}
	prog.Step("trace", name, 1, 3, time.Since(start))

	cfg := core.DefaultConfig()
	phase := time.Now()
	var events telemetry.EventSink
	if obs.Sink != nil {
		events = obs.Sink
	}
	prof := profiles.CollectObserved(pws, cfg.UopCache, src, obs.Registry, events)
	prog.Step("profile", src.String(), 2, 3, time.Since(phase))
	phase = time.Now()
	if err := telemetry.AtomicWriteFile(*out, 0o644, prof.Save); err != nil {
		return err
	}
	prog.Step("write", *out, 3, 3, time.Since(phase))
	if err := obs.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "profiled %d lookups (%d distinct windows) with %s; wrote %s\n",
		len(pws), len(prof.Rates), src, *out)
	return nil
}

// readTrace loads a binary trace file, reporting Close errors too (a block
// read that hit a torn file should never pass silently).
func readTrace(path string) ([]trace.Block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	blks, err := trace.ReadBlocks(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return blks, nil
}
