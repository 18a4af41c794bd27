// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments [-blocks N] [-apps a,b,c] [-csv dir] [-md file] fig8 fig10 ...
//	experiments [-parallel N] [-quiet] [-manifest run.json] [-telemetry FILE]
//	            [-events FILE] all
//	experiments [-cache-dir dir] all
//	experiments [-inspect lru,furbys] [-inspect-window N] [-trace-out t.json]
//	            [-serve ADDR] fig8
//
// -parallel N runs up to N heavy (experiment, app) cells concurrently
// (0 = GOMAXPROCS); output is byte-identical at any worker count, and
// -parallel 1 reproduces the serial schedule exactly. Progress lines
// ([fig8] kafka 3/11 1.2s) stream to stderr unless -quiet. A run manifest
// (configuration, build info, worker count, per-figure and per-app
// wall-clock, failures, status) is written next to the CSV/SVG output, or to
// -manifest. Any failed experiment or write makes the exit status non-zero,
// but later experiments still run.
//
// Resilience: a cell that errors or panics fails its experiment — no
// table, no CSV or SVG for it, the cell (and a panic's stack) listed under
// failed_cells in the manifest, and a non-zero exit status; the other
// experiments still run. SIGINT/SIGTERM drains the run gracefully — cells in
// flight finish, queued work is abandoned, completed results are flushed,
// and the manifest is written with status "interrupted" (exit status 130).
// To recover, rerun the same command; with -cache-dir the rerun loads every
// keep-plan the interrupted run solved instead of solving it again.
//
// -cache-dir DIR enables a content-addressed on-disk cache for solved
// FOO/FLACK keep-plans. Entries are keyed by a SHA-256 over every input that
// determines them (plus a format version), so a warm cache is
// byte-identical to a cold run — it only skips the min-cost-flow solves.
// Traffic is recorded in the manifest (cache block) and the plan_cache_*
// counters. With or without the cache, a run solves or loads each distinct
// plan once and then serves it from memory; plan_memo_{hit,miss}_total
// count that reuse. Timing runs and their shared per-trace timing paths are
// memoized the same way (timing_memo_*, timing_path_memo_*), and run.json's
// memo block records all three memos' hits and misses.
//
// Introspection: -inspect POLICIES replays each app under the named policies
// after the experiments finish, classifies every eviction (justified /
// premature / FLACK-divergent), and writes attribution.csv,
// attribution_rd.csv and attribution.svg next to the run's outputs (indexed
// in the manifest). -trace-out FILE exports experiment/cell/singleflight
// spans as Chrome trace-event JSON for Perfetto. -serve ADDR exposes the
// live run dashboard at /debug/status (JSON) and /debug/status/html, plus
// /metrics and pprof, while the campaign runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"uopsim/internal/artifact"
	"uopsim/internal/experiments"
	"uopsim/internal/flow"
	"uopsim/internal/inspect"
	"uopsim/internal/offline"
	"uopsim/internal/parallel"
	"uopsim/internal/plot"
	"uopsim/internal/telemetry"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed and validated command line.
type options struct {
	list     bool
	blocks   int
	apps     string
	csvDir   string
	svgDir   string
	check    bool
	mdFile   string
	report   string
	par      int
	quiet    bool
	manifest string
	cacheDir string

	inspectPolicies string
	inspectWindow   int
	traceOut        string

	obs      telemetry.CLI
	ids      []string
	policies []string
}

// behaviorNames are the policy names RunBehaviorByName accepts (-inspect
// validates against them up front instead of failing mid-campaign).
var behaviorNames = []string{
	"lru", "random", "srrip", "drrip", "ship++", "ghrp", "mockingjay",
	"thermometer", "furbys", "belady", "foo", "flack",
}

// usageError marks a bad invocation: reported with usage conventions and
// exit status 2, distinct from operational failures (exit 1).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }

// parseArgs parses and validates the command line up front, before any
// simulation work: flag types, worker/sample ranges, experiment ids, and
// output-directory writability all fail fast with a usage error instead of
// wasting a run.
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.IntVar(&o.blocks, "blocks", 60000, "dynamic blocks per application trace")
	fs.StringVar(&o.apps, "apps", "", "comma-separated app subset (default: all 11)")
	fs.StringVar(&o.csvDir, "csv", "", "directory to write per-experiment CSV files")
	fs.StringVar(&o.svgDir, "svg", "", "directory to write per-experiment SVG figures")
	fs.BoolVar(&o.check, "check", false, "verify the paper's qualitative claims against each table")
	fs.StringVar(&o.mdFile, "md", "", "file to append markdown tables to (default stdout only)")
	fs.StringVar(&o.report, "report", "", "file to write the paper-vs-measured report (summary + checks + tables)")
	fs.IntVar(&o.par, "parallel", 0, "max concurrent (experiment, app) cells; 0 = GOMAXPROCS, 1 = serial schedule")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-app progress lines on stderr")
	fs.StringVar(&o.manifest, "manifest", "", "write the run manifest to `FILE` (default: run.json in -csv or -svg dir)")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "content-addressed artifact cache `DIR` for solved FOO/FLACK keep-plans (default: no cache)")
	fs.StringVar(&o.inspectPolicies, "inspect", "", "run eviction attribution for the comma-separated `POLICIES` after the experiments (e.g. lru,srrip,furbys)")
	fs.IntVar(&o.inspectWindow, "inspect-window", 0, "premature-eviction window in lookups for -inspect (0 = default 4096)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event span trace to `FILE` (load in Perfetto or chrome://tracing)")
	o.obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, usageError{err}
	}
	o.ids = fs.Args()
	if o.list {
		return o, nil
	}
	if len(o.ids) == 0 {
		return nil, usageError{errors.New("no experiment ids given (try -list or 'all')")}
	}
	if len(o.ids) == 1 && o.ids[0] == "all" {
		o.ids = experiments.IDs()
	}
	for _, id := range o.ids {
		if _, ok := experiments.Lookup(id); !ok {
			return nil, usageError{fmt.Errorf("unknown experiment %q", id)}
		}
	}
	if o.blocks <= 0 {
		return nil, usageError{fmt.Errorf("-blocks must be positive (got %d)", o.blocks)}
	}
	if o.par < 0 {
		return nil, usageError{fmt.Errorf("-parallel must be >= 0 (got %d; 0 selects GOMAXPROCS)", o.par)}
	}
	if o.obs.Sample <= 0 {
		return nil, usageError{fmt.Errorf("-sample must be positive (got %d)", o.obs.Sample)}
	}
	if o.inspectWindow < 0 {
		return nil, usageError{fmt.Errorf("-inspect-window must be >= 0 (got %d)", o.inspectWindow)}
	}
	if o.inspectPolicies != "" {
		known := make(map[string]bool, len(behaviorNames))
		for _, n := range behaviorNames {
			known[n] = true
		}
		for _, p := range strings.Split(o.inspectPolicies, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			if !known[p] {
				return nil, usageError{fmt.Errorf("-inspect: unknown policy %q (known: %s)", p, strings.Join(behaviorNames, ","))}
			}
			o.policies = append(o.policies, p)
		}
		if len(o.policies) == 0 {
			return nil, usageError{errors.New("-inspect: empty policy list")}
		}
	}
	for _, dir := range []string{o.csvDir, o.svgDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, usageError{fmt.Errorf("output dir: %w", err)}
		}
	}
	return o, nil
}

// runMain is the single exit point: 0 on success, 1 on operational failure,
// 2 on a bad invocation, 130 when the run was interrupted and drained.
func runMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "experiments:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
	if o.list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	interrupted, err := run(o, args, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		if interrupted {
			return 130
		}
		return 1
	}
	if interrupted {
		return 130
	}
	return 0
}

// run executes the campaign. It reports whether the run was interrupted
// (drained after SIGINT/SIGTERM or a context cancellation) and the first
// fatal or aggregate error.
func run(o *options, args []string, stdout, stderr io.Writer) (interrupted bool, err error) {
	if err := o.obs.Start(); err != nil {
		return false, err
	}
	if o.obs.Registry != nil {
		flow.RegisterMetrics(o.obs.Registry)
		offline.RegisterMetrics(o.obs.Registry)
	}
	hw := telemetry.StartHeapWatermark(0)

	// SIGINT/SIGTERM cancels the campaign context: cells in flight finish,
	// queued work is abandoned, and everything below the RunMany call —
	// report, manifest, telemetry flush — still runs.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ectx := experiments.NewContext(o.blocks)
	if o.apps != "" {
		ectx.Apps = strings.Split(o.apps, ",")
	}
	ectx.Workers = o.par
	ectx.Ctx = sigCtx
	ectx.Telemetry.Metrics = o.obs.Registry
	if o.obs.Sink != nil {
		ectx.Telemetry.Events = o.obs.Sink
	}
	if !o.quiet {
		ectx.Progress = telemetry.NewProgress(stderr)
	}
	// The artifact cache is strictly additive: every entry is content-keyed
	// over the inputs that determine it, so a warm cache changes only how
	// fast keep-plans materialize, never what they contain.
	var store *artifact.Store
	if o.cacheDir != "" {
		s, serr := artifact.Open(o.cacheDir)
		if serr != nil {
			return false, serr
		}
		if o.obs.Registry != nil {
			s.AttachMetrics(o.obs.Registry)
		}
		ectx.Artifacts = s
		store = s
	}
	if o.traceOut != "" {
		ectx.Spans = inspect.NewSpanLog()
	}
	// The live dashboard (-serve) polls the campaign state through this
	// snapshot; installing it before RunMany means mid-campaign scrapes see
	// cells and workers move in real time.
	o.obs.SetStatus(func() any { return ectx.StatusSnapshot() })

	workers := parallel.Workers(o.par)
	man := telemetry.NewRunManifest("experiments", args)
	man.Blocks = o.blocks
	man.Workers = workers
	man.Apps = ectx.AppList()
	man.Config = map[string]any{
		"blocks": o.blocks, "apps": strings.Join(ectx.AppList(), ","),
		"csv": o.csvDir, "svg": o.svgDir, "check": o.check, "parallel": workers,
		"cache_dir": o.cacheDir,
	}
	fail := func(format string, a ...any) {
		msg := fmt.Sprintf(format, a...)
		fmt.Fprintln(stderr, "experiments: "+msg)
		man.Failures = append(man.Failures, msg)
	}

	var md *os.File
	if o.mdFile != "" {
		f, ferr := os.OpenFile(o.mdFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return false, ferr
		}
		md = f
	}

	// RunMany fans the experiments out under the shared worker budget and
	// calls emit in input order as results become ready, so stdout, the
	// markdown file and the manifest read exactly as the serial run's.
	checkFailures := 0
	var allTables []*experiments.Table
	var allChecks []experiments.CheckResult
	experiments.RunMany(ectx, o.ids, func(r experiments.RunResult) {
		id := r.ID
		fig := telemetry.FigureRun{ID: id, WallSeconds: r.WallSeconds, Apps: r.Apps, FailedCells: r.Failed}
		if r.Err != nil {
			fig.Error = r.Err.Error()
			man.Figures = append(man.Figures, fig)
			fail("%s: %v", id, r.Err)
			return
		}
		tbl := r.Table
		fig.Title = tbl.Title
		fig.Rows = len(tbl.Rows)
		man.Figures = append(man.Figures, fig)
		wall := time.Duration(r.WallSeconds * float64(time.Second))
		fmt.Fprintf(stdout, "== %s (%s) ==\n", id, wall.Round(time.Millisecond))
		if werr := tbl.Markdown(stdout); werr != nil {
			fail("%s: stdout: %v", id, werr)
		}
		if md != nil {
			if werr := tbl.Markdown(md); werr != nil {
				fail("%s: %s: %v", id, o.mdFile, werr)
			}
		}
		allTables = append(allTables, tbl)
		if o.check || o.report != "" {
			res := experiments.Check(tbl)
			allChecks = append(allChecks, res)
			if o.check {
				for _, p := range res.Passed {
					fmt.Fprintf(stdout, "CHECK PASS %s: %s\n", id, p)
				}
				for _, f := range res.Failed {
					fmt.Fprintf(stdout, "CHECK FAIL %s: %s\n", id, f)
					checkFailures++
				}
			}
		}
		if o.csvDir != "" {
			if werr := writeCSV(o.csvDir, id, tbl); werr != nil {
				fail("%s: %v", id, werr)
			}
		}
		if o.svgDir != "" {
			if werr := writeSVG(o.svgDir, id, tbl); werr != nil {
				fail("%s: %v", id, werr)
			}
		}
	})
	interrupted = sigCtx.Err() != nil

	// Eviction attribution runs after the campaign so its replays don't
	// compete with experiment cells for the worker budget.
	if len(o.policies) > 0 && !interrupted {
		if ierr := runInspect(o, ectx, man, stderr); ierr != nil {
			fail("inspect: %v", ierr)
		}
		interrupted = sigCtx.Err() != nil
	}
	if o.traceOut != "" {
		if werr := ectx.Spans.WriteFile(o.traceOut); werr != nil {
			fail("trace: %v", werr)
		} else {
			if man.Inspect == nil {
				man.Inspect = &telemetry.InspectArtifacts{}
			}
			man.Inspect.TraceJSON = o.traceOut
			if !o.quiet {
				fmt.Fprintf(stderr, "experiments: span trace (%d events) written to %s\n", ectx.Spans.Len(), o.traceOut)
			}
		}
	}

	if o.report != "" {
		if werr := writeReport(o.report, allTables, allChecks); werr != nil {
			fail("report: %v", werr)
		}
	}
	if checkFailures > 0 {
		fail("%d claim(s) failed", checkFailures)
	}
	// Close the markdown file before the manifest is finalized: the close
	// error is the last chance to notice a failed flush, and it belongs in
	// the manifest's failure log like any other lost output.
	if md != nil {
		if cerr := md.Close(); cerr != nil {
			fail("%s: close: %v", o.mdFile, cerr)
		}
		md = nil
	}

	man.Memo = ectx.MemoTraffic()
	switch {
	case interrupted:
		man.Status = telemetry.StatusInterrupted
	case len(man.Failures) > 0:
		man.Status = telemetry.StatusFailed
	default:
		man.Status = telemetry.StatusOK
	}
	if store != nil {
		info := &telemetry.ArtifactCacheInfo{Dir: store.Dir(), Kinds: map[string]telemetry.ArtifactCacheKind{}}
		for kind, ks := range store.Stats() {
			info.Kinds[kind] = telemetry.ArtifactCacheKind{Hits: ks.Hits, Misses: ks.Misses, Errors: ks.Errors}
		}
		man.Cache = info
	}
	man.PeakHeapAlloc = hw.Stop()
	man.Finish()
	if path := manifestPath(o.manifest, o.csvDir, o.svgDir); path != "" {
		if werr := man.WriteFile(path); werr != nil {
			return interrupted, fmt.Errorf("manifest: %w", werr)
		}
		if o.manifest != "" {
			fmt.Fprintln(stderr, "experiments: build", buildLine(man.Build))
		}
		if !o.quiet {
			fmt.Fprintln(stderr, "experiments: manifest written to", path)
		}
	}
	if cerr := o.obs.Close(); cerr != nil {
		return interrupted, cerr
	}
	if interrupted {
		return true, fmt.Errorf("interrupted: %d of %d experiment(s) completed", len(allTables), len(o.ids))
	}
	if len(man.Failures) > 0 {
		return false, fmt.Errorf("%d failure(s)", len(man.Failures))
	}
	return false, nil
}

// runInspect runs the eviction-attribution campaign and writes its
// artifacts (attribution.csv, attribution_rd.csv, attribution.svg) next to
// the run's other outputs, indexing them in the manifest.
func runInspect(o *options, ectx *experiments.Context, man *telemetry.RunManifest, stderr io.Writer) error {
	rows, err := experiments.RunAttribution(ectx, experiments.AttributionOptions{
		Policies: o.policies,
		Window:   o.inspectWindow,
	})
	if err != nil {
		return err
	}
	dir := o.csvDir
	if dir == "" {
		dir = o.svgDir
	}
	if dir == "" {
		dir = "."
	}
	ins := &telemetry.InspectArtifacts{}
	ins.Evictions, ins.Justified, ins.Premature, ins.Divergent = inspect.Totals(rows)
	csvPath := filepath.Join(dir, "attribution.csv")
	if werr := telemetry.AtomicWriteFile(csvPath, 0o644, func(w io.Writer) error {
		return inspect.WriteCSV(w, rows)
	}); werr != nil {
		return werr
	}
	ins.AttributionCSV = csvPath
	rdPath := filepath.Join(dir, "attribution_rd.csv")
	if werr := telemetry.AtomicWriteFile(rdPath, 0o644, func(w io.Writer) error {
		return inspect.WriteRDCSV(w, rows)
	}); werr != nil {
		return werr
	}
	ins.ReuseDistCSV = rdPath
	svgDir := o.svgDir
	if svgDir == "" {
		svgDir = dir
	}
	svgPath := filepath.Join(svgDir, "attribution.svg")
	svg := inspect.FractionSVG("Eviction attribution by class", rows)
	if werr := telemetry.AtomicWriteFile(svgPath, 0o644, func(w io.Writer) error {
		_, werr := io.WriteString(w, svg)
		return werr
	}); werr != nil {
		return werr
	}
	ins.AttributionSVG = svgPath
	man.Inspect = ins
	if !o.quiet {
		fmt.Fprintln(stderr, "experiments: inspect —", inspect.Summary(rows))
	}
	return nil
}

// buildLine renders the manifest's build identification (go version, VCS
// revision, dirty marker) for the -manifest status line, so a result file
// can be tied back to the exact tree that produced it.
func buildLine(b telemetry.BuildInfo) string {
	rev := b.Revision
	switch {
	case rev == "":
		rev = "revision unknown"
	case len(rev) > 12:
		rev = rev[:12]
	}
	if b.Modified {
		rev += "+dirty"
	}
	return fmt.Sprintf("%s %s (%s)", b.GoVersion, rev, b.Module)
}

// manifestPath picks where the run manifest goes: the explicit flag first,
// else next to the CSV output, else next to the SVGs, else nowhere.
func manifestPath(explicit, csvDir, svgDir string) string {
	switch {
	case explicit != "":
		return explicit
	case csvDir != "":
		return filepath.Join(csvDir, "run.json")
	case svgDir != "":
		return filepath.Join(svgDir, "run.json")
	}
	return ""
}

func writeCSV(dir, id string, tbl *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return telemetry.AtomicWriteFile(filepath.Join(dir, id+".csv"), 0o644, tbl.CSV)
}

// sweepIDs lists experiments whose first column is a swept parameter; they
// render as line charts rather than grouped bars.
var sweepIDs = map[string]bool{
	"fig12": true, "fig16": true, "fig19": true, "fig20": true,
	"sens-delay": true, "sens-segment": true,
}

// writeSVG charts the table's numeric columns, a line chart for a parameter
// sweep and grouped bars otherwise; a table with no numeric column gets no
// SVG.
func writeSVG(dir, id string, tbl *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	groups, series := tbl.Series()
	if series == nil {
		return nil
	}
	chart := plot.BarSVG
	if sweepIDs[tbl.Name] {
		chart = plot.LineSVG
	}
	svg := chart(tbl.Title, "percent", groups, series)
	return telemetry.AtomicWriteFile(filepath.Join(dir, id+".svg"), 0o644, func(w io.Writer) error {
		_, err := io.WriteString(w, svg)
		return err
	})
}

func writeReport(path string, tables []*experiments.Table, checks []experiments.CheckResult) error {
	return telemetry.AtomicWriteFile(path, 0o644, func(w io.Writer) error {
		return experiments.WriteReport(w, tables, checks)
	})
}
