package telemetry

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
)

// CLI bundles the standard observability flags every binary exposes
// (-telemetry, -events, -sample, -serve) and owns the resources they
// resolve to: a metrics registry, a JSONL event sink, and the
// pprof/metrics/status HTTP server. Mains call RegisterFlags before
// flag.Parse, Start after, and Close on the way out.
type CLI struct {
	MetricsPath string
	EventsPath  string
	Sample      int
	ServeAddr   string

	// Registry is non-nil after Start when -telemetry or -serve was given.
	Registry *Registry
	// Sink is non-nil after Start when -events was given.
	Sink *JSONLSink

	// eventsFile streams to <EventsPath>.partial; Close fsyncs and renames
	// it to EventsPath, so a crash leaves an obviously incomplete .partial
	// file instead of a silently truncated trace.
	eventsFile *os.File
	server     *http.Server

	// status is the /debug/status document source, settable after Start
	// (drivers build their run state after parsing flags).
	statusMu sync.Mutex
	status   StatusFunc
}

// RegisterFlags declares the observability flags on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsPath, "telemetry", "", "write metrics to `FILE` at exit (Prometheus text; .json switches to JSON)")
	fs.StringVar(&c.EventsPath, "events", "", "write a JSONL trace of cache decisions to `FILE`")
	fs.IntVar(&c.Sample, "sample", 1, "emit every `N`th event to -events")
	fs.StringVar(&c.ServeAddr, "serve", "", "serve the live run dashboard (/debug/status), net/http/pprof, /metrics and /healthz on `ADDR` (e.g. localhost:6060)")
}

// SetStatus installs (or replaces) the /debug/status document source. Safe
// to call at any time, including before Start and from concurrent scrapes.
func (c *CLI) SetStatus(fn StatusFunc) {
	c.statusMu.Lock()
	c.status = fn
	c.statusMu.Unlock()
}

// statusDoc snapshots the current status document.
func (c *CLI) statusDoc() any {
	c.statusMu.Lock()
	fn := c.status
	c.statusMu.Unlock()
	if fn == nil {
		return struct{}{}
	}
	return fn()
}

// Start opens the sinks and the HTTP server the parsed flags ask for.
func (c *CLI) Start() error {
	if c.MetricsPath != "" || c.ServeAddr != "" {
		c.Registry = NewRegistry()
	}
	if c.MetricsPath != "" {
		// Fail before the run, not after it: the metrics file is only
		// written at Close, which would waste the whole simulation on a
		// bad path.
		f, err := os.Create(c.MetricsPath)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	if c.EventsPath != "" {
		f, err := os.Create(c.EventsPath + ".partial")
		if err != nil {
			return fmt.Errorf("events: %w", err)
		}
		c.eventsFile = f
		c.Sink = NewJSONLSink(f, c.Sample)
	}
	if c.ServeAddr != "" {
		srv, err := ServeStatus(c.ServeAddr, c.Registry, c.statusDoc)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		c.server = srv
		fmt.Fprintf(os.Stderr, "pprof/metrics/status listening on http://%s\n", srv.Addr)
	}
	return nil
}

// Close flushes the event sink, publishes the completed event trace at its
// final path, and writes the metrics file. The HTTP server is left running
// until process exit (it serves no state of its own beyond the registry,
// which stays valid).
func (c *CLI) Close() error {
	var first error
	if c.Sink != nil {
		if err := c.Sink.Flush(); err != nil && first == nil {
			first = fmt.Errorf("events: %w", err)
		}
	}
	if c.eventsFile != nil {
		err := c.eventsFile.Sync()
		if cerr := c.eventsFile.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(c.eventsFile.Name(), c.EventsPath)
		}
		if err != nil && first == nil {
			first = fmt.Errorf("events: %w", err)
		}
	}
	if c.MetricsPath != "" && c.Registry != nil {
		if err := c.Registry.WriteFile(c.MetricsPath); err != nil && first == nil {
			first = fmt.Errorf("telemetry: %w", err)
		}
	}
	return first
}
