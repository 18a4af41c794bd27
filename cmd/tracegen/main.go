// Command tracegen emits a synthetic application trace to a binary file
// (the stand-in for the paper's Intel PT collection step).
//
// Usage:
//
//	tracegen -app postgres -blocks 200000 -input 0 -o postgres.trace
//	         [-telemetry FILE] [-serve ADDR] [-progress]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

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
		fmt.Fprintln(stderr, "tracegen:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app      = fs.String("app", "kafka", "application: "+strings.Join(workload.Names(), ", "))
		blocks   = fs.Int("blocks", 100000, "dynamic blocks to generate")
		input    = fs.Int("input", 0, "input variant")
		out      = fs.String("o", "", "output file (required)")
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
	spec, err := workload.Get(*app)
	if err != nil {
		return usageError{err}
	}
	if err := obs.Start(); err != nil {
		return err
	}
	var prog *telemetry.Progress
	if *progress {
		prog = telemetry.NewProgress(stderr)
	}
	start := time.Now()
	blks := workload.GenerateSpec(spec, *blocks, *input)
	prog.Step("generate", *app, 1, 2, time.Since(start))
	phase := time.Now()
	if err := telemetry.AtomicWriteFile(*out, 0o644, func(w io.Writer) error {
		return trace.WriteBlocks(w, blks)
	}); err != nil {
		return err
	}
	pws := trace.FormPWs(blks, 0)
	prog.Step("write", *out, 2, 2, time.Since(phase))
	if reg := obs.Registry; reg != nil {
		reg.Counter("offline_tracegen_blocks_total").Add(uint64(len(blks)))
		reg.Counter("offline_tracegen_pws_total").Add(uint64(len(pws)))
		h := reg.Histogram("offline_tracegen_pw_uops")
		for _, pw := range pws {
			h.Observe(uint64(pw.NumUops))
		}
	}
	if sink := obs.Sink; sink != nil {
		for _, pw := range pws {
			sink.Emit(telemetry.Event{Kind: "pw", Key: pw.Start, Uops: int(pw.NumUops)})
		}
	}
	if err := obs.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d blocks (%d PW lookups) for %s input %d to %s\n",
		len(blks), len(pws), *app, *input, *out)
	return nil
}
