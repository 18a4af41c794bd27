package inspect

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }

func TestNilSpanLogIsInert(t *testing.T) {
	var l *SpanLog
	sp := l.Begin("cat", "name")
	sp.Arg("k", "v") // must not panic
	sp.End()
	l.Instant("cat", "marker")
	if l.Len() != 0 {
		t.Error("nil log has events")
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-log JSON invalid: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("nil log emitted %d events", len(doc.TraceEvents))
	}
}

func TestSpanLaneAssignment(t *testing.T) {
	l := NewSpanLog()
	// Nested spans: outer covers inner, so when outer ends its start time
	// predates inner's busy interval and it must take a fresh lane.
	outer := l.Begin("cell", "outer")
	inner := l.Begin("solve", "inner")
	time.Sleep(2 * time.Millisecond)
	inner.End()
	outer.End()
	// A later span begins after both finished and reuses the lowest lane.
	time.Sleep(2 * time.Millisecond)
	later := l.Begin("cell", "later")
	time.Sleep(time.Millisecond)
	later.End()

	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	lastTs := int64(-1)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		tids[ev.Name] = ev.Tid
		if ev.Dur < 1 {
			t.Errorf("span %s has dur %d; Perfetto drops zero-width spans", ev.Name, ev.Dur)
		}
		if ev.Ts < lastTs {
			t.Error("spans not sorted by timestamp")
		}
		lastTs = ev.Ts
	}
	if len(tids) != 3 {
		t.Fatalf("got spans %v, want 3", tids)
	}
	if tids["outer"] == tids["inner"] {
		t.Errorf("overlapping spans share lane %d", tids["outer"])
	}
	if tids["later"] != 1 {
		t.Errorf("later span on lane %d, want lowest lane 1", tids["later"])
	}
}

func TestSpanArgsAndInstant(t *testing.T) {
	l := NewSpanLog()
	l.Begin("cell", "c").Arg("failed", "true").Arg("cancelled", "true").End()
	l.Instant("marker", "interrupted")
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var sawSpan, sawInstant, sawProcessName bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Name == "c":
			sawSpan = true
			if ev.Args["failed"] != "true" || ev.Args["cancelled"] != "true" {
				t.Errorf("span args = %v", ev.Args)
			}
		case ev.Ph == "i" && ev.Name == "interrupted":
			sawInstant = true
		case ev.Ph == "M" && ev.Name == "process_name":
			sawProcessName = true
		}
	}
	if !sawSpan || !sawInstant || !sawProcessName {
		t.Errorf("missing events: span=%v instant=%v meta=%v", sawSpan, sawInstant, sawProcessName)
	}
}

func TestSpanLogWriteFile(t *testing.T) {
	l := NewSpanLog()
	l.Begin("a", "b").End()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// File contents must themselves be a valid trace document.
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file invalid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("trace file missing traceEvents key")
	}
}
