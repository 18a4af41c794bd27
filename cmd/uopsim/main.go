// Command uopsim runs one application under one replacement policy and
// prints micro-op cache statistics (behaviour mode) or IPC and power
// (timing mode).
//
// Usage:
//
//	uopsim -app kafka -policy furbys [-mode behavior|timing] [-blocks N]
//	       [-input N] [-icache] [-zen4]
//	       [-telemetry FILE] [-events FILE -sample N] [-serve ADDR] [-progress]
//	       [-inspect] [-inspect-window N] [-inspect-csv FILE] [-trace-out FILE]
//
// -inspect (behaviour mode) classifies every eviction as justified,
// premature, or FLACK-divergent and prints the attribution summary with a
// per-reason breakdown; -inspect-csv also writes the attribution table.
// -trace-out exports the run's phase spans as Chrome trace-event JSON.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"uopsim/internal/core"
	"uopsim/internal/inspect"
	"uopsim/internal/offline"
	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
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
		fmt.Fprintln(stderr, "uopsim:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("uopsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app      = fs.String("app", "kafka", "application: "+strings.Join(workload.Names(), ", "))
		traceF   = fs.String("trace", "", "trace file from tracegen (overrides -app/-blocks/-input)")
		pol      = fs.String("policy", "lru", "replacement policy: "+strings.Join(append(core.PolicyNames(), core.OfflineNames()...), ", "))
		mode     = fs.String("mode", "behavior", "simulation mode: behavior or timing")
		blocks   = fs.Int("blocks", 100000, "dynamic blocks to simulate")
		input    = fs.Int("input", 0, "input variant (cross-validation inputs are 1, 2, ...)")
		icache   = fs.Bool("icache", false, "model the inclusive L1i (behavior mode); default is a perfect icache")
		zen4     = fs.Bool("zen4", false, "use the Zen4 configuration instead of Zen3")
		progress = fs.Bool("progress", false, "print phase status lines to stderr")

		inspectOn  = fs.Bool("inspect", false, "classify every eviction (justified/premature/FLACK-divergent) and print the attribution (behavior mode)")
		inspWindow = fs.Int("inspect-window", 0, "premature-eviction window in lookups for -inspect (0 = default 4096)")
		inspCSV    = fs.String("inspect-csv", "", "also write the -inspect attribution table to `FILE`")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace-event span trace to `FILE` (load in Perfetto)")
	)
	var obs telemetry.CLI
	obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if *mode != "behavior" && *mode != "timing" {
		return usageError{fmt.Errorf("unknown mode %q (want behavior or timing)", *mode)}
	}
	if names := append(core.PolicyNames(), core.OfflineNames()...); !slices.Contains(names, *pol) {
		return usageError{fmt.Errorf("unknown policy %q (want one of %s)", *pol, strings.Join(names, ", "))}
	}
	if *blocks <= 0 {
		return usageError{fmt.Errorf("-blocks must be positive (got %d)", *blocks)}
	}
	if *inspectOn && *mode != "behavior" {
		return usageError{errors.New("-inspect requires -mode behavior")}
	}
	if *inspWindow < 0 {
		return usageError{fmt.Errorf("-inspect-window must be >= 0 (got %d)", *inspWindow)}
	}
	if err := obs.Start(); err != nil {
		return err
	}
	intro := introspection{enabled: *inspectOn, window: *inspWindow, csv: *inspCSV, traceOut: *traceOut}
	err := simulate(*app, *traceF, *pol, *mode, *blocks, *input, *icache, *zen4, *progress, intro, &obs, stdout, stderr)
	if cerr := obs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// introspection bundles the -inspect/-trace-out options.
type introspection struct {
	enabled  bool
	window   int
	csv      string
	traceOut string
}

func simulate(app, traceFile, pol, mode string, blocks, input int, icache, zen4, progress bool, intro introspection, obs *telemetry.CLI, stdout, stderr io.Writer) error {
	cfg := core.DefaultConfig()
	if zen4 {
		cfg = core.Zen4Config()
	}
	var prog *telemetry.Progress
	if progress {
		prog = telemetry.NewProgress(stderr)
	}
	tel := core.Telemetry{Metrics: obs.Registry}
	if obs.Sink != nil {
		tel.Events = obs.Sink
	}
	var spans *inspect.SpanLog
	if intro.traceOut != "" {
		spans = inspect.NewSpanLog()
	}
	var col *inspect.Collector
	if intro.enabled {
		// The collector tees to the -events sink (if any), so both can run.
		col = inspect.NewCollector()
		col.Next = tel.Events
		tel.Events = col
	}
	var blks []trace.Block
	var pws []trace.PW
	var err error
	start := time.Now()
	traceSpan := spans.Begin("phase", "trace")
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		blks, err = trace.ReadBlocks(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		app = traceFile
		pws = trace.FormPWs(blks, 0)
	} else {
		blks, pws, err = core.TraceFor(app, blocks, input)
		if err != nil {
			return err
		}
	}
	traceSpan.End()
	prog.Step("trace", app, 1, 3, time.Since(start))
	fmt.Fprintf(stdout, "app=%s policy=%s mode=%s blocks=%d pw-lookups=%d config=%s\n",
		app, pol, mode, len(blks), len(pws), cfg.Name)

	switch mode {
	case "behavior":
		phase := time.Now()
		simSpan := spans.Begin("phase", "simulate").Arg("policy", pol)
		// The replay and the attribution's keep-plan share one trace.
		pt := uopcache.Prepare(cfg.UopCache, pws)
		opts := core.BehaviorOptions{WithICache: icache, Telemetry: tel, Prepared: pt}
		res, err := core.RunBehaviorByName(pol, pws, cfg, opts)
		simSpan.End()
		if err != nil {
			return err
		}
		prog.Step("simulate", app, 3, 3, time.Since(phase))
		s := res.Stats
		fmt.Fprintf(stdout, "lookups=%d full-hits=%d partial-hits=%d misses=%d\n", s.Lookups, s.FullHits, s.PartialHits, s.Misses)
		fmt.Fprintf(stdout, "uops requested=%d hit=%d missed=%d  uop-miss-rate=%.4f\n", s.UopsRequested, s.UopsHit, s.UopsMissed, s.UopMissRate())
		fmt.Fprintf(stdout, "insertions=%d entries-written=%d bypasses=%d evictions=%d invalidations=%d\n",
			s.Insertions, s.EntriesWritten, s.Bypasses, s.Evictions, s.Invalidations)
		if res.FURBYS != nil {
			f := res.FURBYS
			fmt.Fprintf(stdout, "furbys: victim-coverage=%.2f%% bypass-rate=%.2f%%\n",
				100*f.VictimCoverage(), 100*float64(f.Bypasses)/float64(max64(f.InsertAttempts, 1)))
		}
		if col != nil {
			if err := reportAttribution(app, pol, pt, cfg, col, intro, s.Evictions, spans, stdout); err != nil {
				return err
			}
		}
	case "timing":
		var prof *profiles.Profile
		if pol == "furbys" || pol == "thermometer" {
			phase := time.Now()
			profSpan := spans.Begin("phase", "profile")
			prof = profiles.Collect(pws, cfg.UopCache, profiles.SourceFLACK)
			profSpan.End()
			prog.Step("profile", app, 2, 3, time.Since(phase))
		}
		phase := time.Now()
		simSpan := spans.Begin("phase", "simulate").Arg("policy", pol)
		res, err := core.RunTimingByNameWith(pol, blks, pws, cfg, prof, core.TimingOptions{Telemetry: tel})
		simSpan.End()
		if err != nil {
			return err
		}
		prog.Step("simulate", app, 3, 3, time.Since(phase))
		fr := res.Frontend
		fmt.Fprintf(stdout, "instructions=%d uops=%d cycles=%d IPC=%.4f\n", fr.Instructions, fr.Uops, fr.Cycles, fr.IPC())
		fmt.Fprintf(stdout, "branch MPKI=%.2f (mispredicts=%d)\n", fr.Branch.MPKI(), fr.Branch.Mispredicts())
		fmt.Fprintf(stdout, "uop-miss-rate=%.4f icache-misses=%d switches=%d\n",
			fr.UopCache.UopMissRate(), fr.Events.ICacheMisses, fr.Events.Switches)
		b := res.Power
		fmt.Fprintf(stdout, "energy (pJ): decoder=%.0f icache=%.0f uop$=%.0f backend=%.0f static=%.0f total=%.0f\n",
			b.Decoder, b.ICache, b.UopCache, b.Backend, b.Static, b.Total())
		fmt.Fprintf(stdout, "performance-per-watt=%.4g instructions/J\n", res.PPW)
	}
	if spans != nil {
		if err := spans.WriteFile(intro.traceOut); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(stderr, "uopsim: span trace (%d events) written to %s\n", spans.Len(), intro.traceOut)
	}
	return nil
}

// reportAttribution classifies the collected evictions against the trace
// (divergence judged against the FLACK keep-plan), reconciles the partition
// with the run's eviction count, and prints the attribution.
func reportAttribution(app, pol string, pt *trace.PreparedTrace, cfg core.Config, col *inspect.Collector, intro introspection, evictions uint64, spans *inspect.SpanLog, stdout io.Writer) error {
	sp := spans.Begin("phase", "attribute")
	dec := offline.ComputeDecisionsPrepared(nil, pt, cfg.UopCache, offline.CostVC, true, 0, 0)
	a := inspect.Attribute(col.Records(), pt.PWs(), inspect.Options{Window: intro.window, Keep: dec.Keep})
	a.App, a.Policy = app, pol
	sp.End()
	if a.Total != evictions {
		return fmt.Errorf("inspect: classified %d evictions but the run counted %d", a.Total, evictions)
	}
	j, p, d := a.Frac()
	fmt.Fprintf(stdout, "attribution (window=%d): evictions=%d justified=%d (%.1f%%) premature=%d (%.1f%%) divergent=%d (%.1f%%)\n",
		a.Window, a.Total, a.Justified, 100*j, a.Premature, 100*p, a.Divergent, 100*d)
	reasons := make([]string, 0, len(a.Reasons))
	for r := range a.Reasons {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(stdout, "  reason %-20s %d\n", r, a.Reasons[r])
	}
	if intro.csv != "" {
		if err := telemetry.AtomicWriteFile(intro.csv, 0o644, func(w io.Writer) error {
			return inspect.WriteCSV(w, []inspect.Attribution{a})
		}); err != nil {
			return fmt.Errorf("inspect: %w", err)
		}
		fmt.Fprintf(stdout, "attribution table written to %s\n", intro.csv)
	}
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
