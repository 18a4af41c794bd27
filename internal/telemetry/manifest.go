package telemetry

import (
	"encoding/json"
	"io"
	"runtime"
	"runtime/debug"
	"time"
)

// BuildInfo is the git-describe-style identification of the binary that
// produced a run, extracted from the Go build metadata.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Time      string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

// CollectBuildInfo reads the binary's embedded build metadata. Fields that
// the build did not stamp (e.g. VCS data in test binaries) stay empty.
func CollectBuildInfo() BuildInfo {
	out := BuildInfo{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.Module = bi.Main.Path
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.Revision = s.Value
		case "vcs.time":
			out.Time = s.Value
		case "vcs.modified":
			out.Modified = s.Value == "true"
		}
	}
	return out
}

// AppRun records one application's share of an experiment.
type AppRun struct {
	App         string  `json:"app"`
	WallSeconds float64 `json:"wall_seconds"`
	Error       string  `json:"error,omitempty"`
}

// CellFailure records one experiment cell that errored or panicked: which
// cell, its error, and — when the failure was a panic — the goroutine
// stack, so a crashed campaign's manifest points at the unit of work
// instead of at the scheduler.
type CellFailure struct {
	Cell  string `json:"cell"`
	Error string `json:"error"`
	Stack string `json:"stack,omitempty"`
}

// FigureRun records one experiment (figure/table) of a sweep.
type FigureRun struct {
	ID          string   `json:"id"`
	Title       string   `json:"title,omitempty"`
	WallSeconds float64  `json:"wall_seconds"`
	Rows        int      `json:"rows,omitempty"`
	Apps        []AppRun `json:"apps,omitempty"`
	Error       string   `json:"error,omitempty"`
	// FailedCells lists the cells that errored or panicked. A failed cell
	// fails its figure, so Error is set whenever this is non-empty.
	FailedCells []CellFailure `json:"failed_cells,omitempty"`
}

// Run statuses recorded in RunManifest.Status.
const (
	// StatusOK: every experiment and artifact write succeeded.
	StatusOK = "ok"
	// StatusFailed: the run completed but at least one experiment, cell,
	// claim check, or artifact write failed.
	StatusFailed = "failed"
	// StatusInterrupted: the run was cancelled (SIGINT/SIGTERM) and
	// drained gracefully; completed figures are recorded, the rest were
	// abandoned.
	StatusInterrupted = "interrupted"
)

// RunManifest is the audit record written next to a run's outputs
// (run.json): what ran, with which configuration and build, how long each
// part took, and what failed.
type RunManifest struct {
	Tool string   `json:"tool"`
	Args []string `json:"args,omitempty"`
	// Status is one of StatusOK, StatusFailed, StatusInterrupted (empty
	// in manifests from before the resilience layer).
	Status      string         `json:"status,omitempty"`
	Start       time.Time      `json:"start"`
	End         time.Time      `json:"end"`
	WallSeconds float64        `json:"wall_seconds"`
	Build       BuildInfo      `json:"build"`
	Config      map[string]any `json:"config,omitempty"`
	Seed        int64          `json:"seed,omitempty"`
	Blocks      int            `json:"blocks,omitempty"`
	// Workers is the resolved concurrency budget the run used (1 = the
	// serial schedule).
	Workers int `json:"workers,omitempty"`
	// PeakHeapAlloc is the largest runtime.MemStats.HeapAlloc sampled over
	// the run (see HeapWatermark), tracking memory use alongside speed.
	PeakHeapAlloc uint64      `json:"peak_heap_alloc_bytes,omitempty"`
	Apps          []string    `json:"apps,omitempty"`
	Figures       []FigureRun `json:"figures,omitempty"`
	Failures      []string    `json:"failures,omitempty"`
	// Inspect records the introspection artifacts (-inspect / -trace-out)
	// so a manifest fully indexes the run's outputs.
	Inspect *InspectArtifacts `json:"inspect,omitempty"`
	// Cache records the content-addressed artifact cache's provenance
	// (-cache-dir): where the cache lived and how much of the run was served
	// from it, so a result file states whether its traces and keep-plans
	// were recomputed or replayed.
	Cache *ArtifactCacheInfo `json:"cache,omitempty"`
	// Memo records the run's in-memory memo traffic by memo name, so a
	// manifest shows how much work its figures shared.
	Memo map[string]MemoTraffic `json:"memo,omitempty"`
}

// MemoTraffic counts one in-memory memo's requests: Misses computed the
// value, Hits were served an earlier one.
type MemoTraffic struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// ArtifactCacheInfo is the run manifest's record of artifact-cache traffic.
// It mirrors internal/artifact's per-kind stats without importing it (the
// artifact package sits above telemetry in the dependency order).
type ArtifactCacheInfo struct {
	Dir   string                       `json:"dir"`
	Kinds map[string]ArtifactCacheKind `json:"kinds,omitempty"`
}

// ArtifactCacheKind is one artifact kind's hit/miss/error traffic.
type ArtifactCacheKind struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Errors uint64 `json:"errors"`
}

// InspectArtifacts indexes the decision-level introspection outputs of a
// run: the eviction-attribution tables and plot, the Chrome span trace, and
// the attribution roll-up for quick triage without opening the CSVs.
type InspectArtifacts struct {
	AttributionCSV string `json:"attribution_csv,omitempty"`
	ReuseDistCSV   string `json:"reuse_dist_csv,omitempty"`
	AttributionSVG string `json:"attribution_svg,omitempty"`
	TraceJSON      string `json:"trace_json,omitempty"`
	Evictions      uint64 `json:"evictions,omitempty"`
	Justified      uint64 `json:"justified,omitempty"`
	Premature      uint64 `json:"premature,omitempty"`
	Divergent      uint64 `json:"divergent,omitempty"`
}

// NewRunManifest starts a manifest for the named tool, stamping start time
// and build info.
func NewRunManifest(tool string, args []string) *RunManifest {
	return &RunManifest{
		Tool:  tool,
		Args:  args,
		Start: time.Now().UTC(),
		Build: CollectBuildInfo(),
	}
}

// Finish stamps the end time and wall clock.
func (m *RunManifest) Finish() {
	m.End = time.Now().UTC()
	m.WallSeconds = m.End.Sub(m.Start).Seconds()
}

// WriteJSON writes the manifest as indented JSON.
func (m *RunManifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile atomically writes the manifest to path (conventionally
// run.json next to the run's CSV/SVG output): a crashed or interrupted
// process leaves either the previous manifest or the complete new one,
// never a torn prefix.
func (m *RunManifest) WriteFile(path string) error {
	return AtomicWriteFile(path, 0o644, m.WriteJSON)
}
