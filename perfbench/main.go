// Command perfbench is the repository's benchmark. It times three
// workloads — the figure campaign, behaviour-mode replay and timing-mode
// runs — through the simulator's public packages, checks every pass's
// outputs, and prints one JSON result line. See README.md for the design.
//
// Run a workload (from the repository root):
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
//
// Compare two sets of recorded runs:
//
//	bash perfbench/run.sh compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run builds its state; setup_s is the
// median, so one slow set-up on a busy host does not move it.
const setupReps = 3

// minPasses is the fewest timed passes a run makes, however short
// --seconds is.
const minPasses = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	workdir  string
	record   string
	golden   string
}

func parseFlags(args []string, errw io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.StringVar(&o.workload, "workload", "", "workload to run: campaign, replay or timing")
	fs.Int64Var(&o.seed, "seed", 0, "perturbs every app's layout seed (replay, timing)")
	fs.IntVar(&o.seconds, "seconds", 10, "how long the timed passes run")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "scratch directory for plan stores and span traces")
	fs.StringVar(&o.record, "record", "", "append this run's full record (passes, digest) to a JSONL file")
	fs.StringVar(&o.golden, "golden", "internal/core/testdata/golden_stats.json", "golden Stats the simulator must reproduce before it is timed")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := lookupWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	return o, nil
}

// endToEndUnits are the end-to-end metrics an untraced run prints, with
// their units.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"pass_p50_ms":       "ms",
	"sim_minst_per_s":   "Minst/s",
	"allocs_per_pass":   "count",
	"alloc_mb_per_pass": "MB",
	"peak_heap_mb":      "MB",
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passRec is one timed pass, kept with its index so host phases show: its
// wall time and the calibration kernel's time just before it.
type passRec struct {
	Index   int     `json:"i"`
	Ms      float64 `json:"ms"`
	CalibMs float64 `json:"calib_ms"`
	Traced  bool    `json:"traced,omitempty"`
	Failed  bool    `json:"failed,omitempty"`
}

// runRecord is everything a run measured; --record appends it for the
// compare mode.
type runRecord struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     int       `json:"trace"`
	Digest    string    `json:"digest"`
	FailRatio float64   `json:"fail_ratio"`
	SetupS    []float64 `json:"setup_s"`
	SetupCal  []float64 `json:"setup_calib_ms"`
	Passes    []passRec `json:"passes"`
	Errors    []string  `json:"errors,omitempty"`
	Result    result    `json:"result"`
}

func runMain(args []string, out, errw io.Writer) int {
	o, err := parseFlags(args, errw)
	if err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		return 2
	}
	rec, err := run(o, errw)
	if err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		if rec == nil {
			return 1
		}
	}
	if o.record != "" {
		if werr := appendRecord(o.record, rec); werr != nil {
			fmt.Fprintln(errw, "perfbench:", werr)
			return 1
		}
	}
	line, jerr := json.Marshal(rec.Result)
	if jerr != nil {
		fmt.Fprintln(errw, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if err != nil || !rec.Result.Correct {
		return 1
	}
	return 0
}

// run performs one benchmark run. It returns a nil record only when nothing
// was measured; a record with Correct false reports a broken simulator.
func run(o options, errw io.Writer) (*runRecord, error) {
	w, _ := lookupWorkload(o.workload)
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	rec := &runRecord{Workload: o.workload, Seed: o.seed, Trace: o.trace}
	refuse := func(err error) (*runRecord, error) {
		rec.Errors = append(rec.Errors, err.Error())
		rec.Result = result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
		return rec, err
	}
	if err := checkGolden(o.golden); err != nil {
		return refuse(fmt.Errorf("simulator no longer matches its golden Stats, refusing to time it: %w", err))
	}
	var simInst uint64
	if o.workload == "campaign" && o.trace == 0 {
		// The campaign's simulation count is internal to experiments;
		// an untimed pass counts it through the public telemetry.
		if simInst, err = campaignSimInst(); err != nil {
			return refuse(err)
		}
	}

	heap := startHeapPeak()
	defer heap.finish()
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()

	// Set-up, repeated: each repetition builds fresh state and runs the
	// discarded warm-up pass. The last state is the one timed.
	var st runner
	var ref string
	var setups []float64
	for i := 0; i < setupReps; i++ {
		st = nil
		runtime.GC()
		sw := cal.start()
		s, err := w.setup(o.seed, tmp)
		if err != nil {
			return refuse(fmt.Errorf("setup: %w", err))
		}
		sw.lap()
		warm, err := safePass(s, nil, sw.lap)
		if err != nil {
			return refuse(fmt.Errorf("warm-up pass: %w", err))
		}
		sw.lap()
		rec.SetupS = append(rec.SetupS, sw.wall.Seconds())
		rec.SetupCal = append(rec.SetupCal, ms(sw.meanCalib()))
		setups = append(setups, sw.scaled.Seconds())
		if ref == "" {
			ref = warm.digest
		} else if warm.digest != ref {
			return refuse(fmt.Errorf("warm-up digest %s differs from first set-up's %s", warm.digest, ref))
		}
		if warm.simInst != 0 {
			simInst = warm.simInst
		}
		st = s
	}
	rec.Digest = ref

	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	ps := timePasses(st, ref, time.Duration(o.seconds)*time.Second, tr, cal)
	rec.Passes, rec.Errors = ps.passes, append(rec.Errors, ps.errors...)
	rec.FailRatio = failRatio(len(ps.passes), ps.failed)
	rec.Result = result{Correct: ps.failed == 0, Attempted: len(ps.passes), Failed: ps.failed, Metrics: map[string]metric{}}
	if len(ps.ms) == 0 {
		return rec, errors.New("no pass succeeded")
	}
	p50 := median(ps.ms)

	if o.trace == 0 {
		m := rec.Result.Metrics
		put := func(name string, v float64) { m[name] = metric{v, endToEndUnits[name]} }
		put("setup_s", median(setups))
		put("pass_p50_ms", p50)
		put("sim_minst_per_s", float64(simInst)/1e6/(p50/1e3))
		put("allocs_per_pass", median(ps.allocs))
		put("alloc_mb_per_pass", median(ps.bytes)/1e6)
		put("peak_heap_mb", float64(heap.finish())/1e6)
		printEndToEnd(errw, o, rec, ps)
		return rec, nil
	}

	// The probe sums busy time by span name, so it starts from empty sums
	// while still recording into the run's span log.
	sw := cal.start()
	layers, err := probe(o.seed, tmp, &tracer{log: tr.log, busy: map[string]time.Duration{}})
	sw.lap()
	if err != nil {
		rec.Result.Correct = false
		rec.Result.Failed++
		rec.Result.Attempted++
		rec.Errors = append(rec.Errors, "layer probe: "+err.Error())
		return rec, err
	}
	// Layer times are reported at reference speed, like pass times.
	speed := float64(calibNominal) / float64(sw.meanCalib())
	for k, m := range layers {
		if m.Unit == "ns" || m.Unit == "ms" || m.Unit == "s" {
			m.Value *= speed
			layers[k] = m
		}
	}
	layers["tracing.overhead_ms"] = metric{median(ps.tracedMs) - p50, "ms"}
	rec.Result.Metrics = layers
	printLayers(errw, o, layers, p50, median(ps.tracedMs), len(ps.ms), len(ps.tracedMs))
	tracePath := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	if err := tr.log.WriteFile(tracePath); err != nil {
		return rec, err
	}
	fmt.Fprintf(errw, "spans: %s (%d events)\n", tracePath, tr.log.Len())
	return rec, nil
}

// passSet is what the timed passes of one run measured. Only passes that
// succeeded contribute samples; failures are counted and their errors kept.
type passSet struct {
	passes        []passRec
	ms, tracedMs  []float64
	allocs, bytes []float64
	failed        int
	errors        []string
}

// timePasses runs timed passes of st until d has elapsed (and at least
// minPasses ran). Before each pass it collects garbage, so a pass starts
// from the same heap. A pass fails on an error, a panic, or a digest other
// than ref. With a tracer, odd passes are traced and even ones are not, so
// both see the same host phases; their difference is the tracing overhead.
func timePasses(st runner, ref string, d time.Duration, tr *tracer, cal *calibrator) passSet {
	var ps passSet
	deadline := time.Now().Add(d)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		traced := tr != nil && i%2 == 1
		var pt *tracer
		if traced {
			pt = tr
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sw := cal.start()
		p, err := safePass(st, pt, sw.lap)
		sw.lap()
		runtime.ReadMemStats(&m1)
		pr := passRec{Index: i, Ms: ms(sw.wall), CalibMs: ms(sw.meanCalib()), Traced: traced}
		scaled := ms(sw.scaled)
		if err == nil && p.digest != ref {
			err = fmt.Errorf("pass %d: digest %s != %s", i, p.digest, ref)
		}
		switch {
		case err != nil:
			pr.Failed = true
			ps.failed++
			ps.errors = append(ps.errors, err.Error())
		case traced:
			ps.tracedMs = append(ps.tracedMs, scaled)
		default:
			ps.ms = append(ps.ms, scaled)
			ps.allocs = append(ps.allocs, float64(m1.Mallocs-m0.Mallocs))
			ps.bytes = append(ps.bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		}
		ps.passes = append(ps.passes, pr)
	}
	return ps
}

// safePass runs one pass, turning a panic into a failed pass.
func safePass(r runner, t *tracer, lap func()) (out passOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return r.pass(t, lap)
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printEndToEnd(w io.Writer, o options, rec *runRecord, ps passSet) {
	var wall, calib []float64
	for _, p := range rec.Passes {
		wall = append(wall, p.Ms)
		calib = append(calib, p.CalibMs)
	}
	fmt.Fprintf(w, "workload %s  seed %d  passes %d (timed %d)  fail_ratio %.4g  digest %s\n",
		o.workload, o.seed, len(rec.Passes), len(ps.ms), rec.FailRatio, rec.Digest)
	fmt.Fprintf(w, "  host: wall pass p50 %.3f ms, calibration p50 %.3f ms (reference %v)\n",
		median(wall), median(calib), calibNominal)
	names := make([]string, 0, len(rec.Result.Metrics))
	for k := range rec.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Result.Metrics[k]
		fmt.Fprintf(w, "  %-20s %14.4f %s\n", k, m.Value, m.Unit)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
