package inspect

import (
	"strings"
	"testing"

	"uopsim/internal/policy"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

func pw(start uint64, uops int) trace.PW {
	return trace.PW{Start: start, NumUops: uint16(uops), Bytes: uint16(uops * 4), NumInst: uint16(uops)}
}

// seq builds a PW sequence from window start addresses (8 uops each).
func seq(starts ...uint64) []trace.PW {
	out := make([]trace.PW, len(starts))
	for i, s := range starts {
		out[i] = pw(s, 8)
	}
	return out
}

func TestAttributeClassification(t *testing.T) {
	// Trace positions:  0    1    2    3    4    5
	pws := seq(0x10, 0x20, 0x30, 0x10, 0x40, 0x50)
	cases := []struct {
		name  string
		rec   EvictionRecord
		opts  Options
		class string
	}{
		// 0x20 is never referenced at or after position 2 -> justified.
		{"never-rereferenced", EvictionRecord{Seq: 2, VictimKey: 0x20}, Options{Window: 4}, ClassJustified},
		// 0x10 evicted at Seq 2, next use at position 3, distance 1 < 4 -> premature.
		{"rereferenced-in-window", EvictionRecord{Seq: 2, VictimKey: 0x10}, Options{Window: 4}, ClassPremature},
		// Same eviction with window 1: distance 1 >= 1 -> justified.
		{"rereferenced-past-window", EvictionRecord{Seq: 2, VictimKey: 0x10}, Options{Window: 1}, ClassJustified},
		// Keep-plan kept the victim's current interval (last use before
		// Seq 2 is position 0) -> divergent, taking precedence over the
		// premature re-reference at position 3.
		{"keep-plan-divergent", EvictionRecord{Seq: 2, VictimKey: 0x10},
			Options{Window: 4, Keep: []bool{true, false, false, false, false, false}}, ClassDivergent},
		// Keep-plan did NOT keep the interval -> falls through to premature.
		{"keep-plan-agrees", EvictionRecord{Seq: 2, VictimKey: 0x10},
			Options{Window: 4, Keep: []bool{false, false, false, false, false, false}}, ClassPremature},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := Attribute([]EvictionRecord{tc.rec}, pws, tc.opts)
			if a.Total != 1 {
				t.Fatalf("Total = %d, want 1", a.Total)
			}
			got := map[string]uint64{
				ClassJustified: a.Justified,
				ClassPremature: a.Premature,
				ClassDivergent: a.Divergent,
			}
			for class, n := range got {
				want := uint64(0)
				if class == tc.class {
					want = 1
				}
				if n != want {
					t.Errorf("%s = %d, want %d (full: %+v)", class, n, want, got)
				}
			}
		})
	}
}

func TestAttributePartitionIsExact(t *testing.T) {
	pws := seq(0x10, 0x20, 0x30, 0x10, 0x20, 0x10, 0x40)
	recs := []EvictionRecord{
		{Seq: 1, VictimKey: 0x10, Reason: "lru_oldest"},
		{Seq: 2, VictimKey: 0x20, Reason: "lru_oldest"},
		{Seq: 3, VictimKey: 0x30, Reason: "random_draw"},
		{Seq: 5, VictimKey: 0x20, Reason: "rrpv_distant"},
		{Seq: 6, VictimKey: 0x99, Reason: "forced"}, // key not in trace at all
	}
	keep := make([]bool, len(pws))
	keep[1] = true // makes the Seq 5 eviction of 0x20 divergent
	a := Attribute(recs, pws, Options{Window: 2, Keep: keep})
	if a.Total != uint64(len(recs)) {
		t.Fatalf("Total = %d, want %d", a.Total, len(recs))
	}
	if a.Justified+a.Premature+a.Divergent != a.Total {
		t.Fatalf("partition not exact: %d + %d + %d != %d",
			a.Justified, a.Premature, a.Divergent, a.Total)
	}
	if a.Divergent != 1 {
		t.Errorf("Divergent = %d, want 1", a.Divergent)
	}
	var reasons uint64
	for _, n := range a.Reasons {
		reasons += n
	}
	if reasons != a.Total {
		t.Errorf("reason tallies sum to %d, want %d", reasons, a.Total)
	}
}

func TestAttributeReuseDistBuckets(t *testing.T) {
	// Distance 1 -> bucket 1; distance 2 -> bucket 2; no re-reference ->
	// no histogram observation.
	pws := seq(0xA, 0xB, 0xA, 0xC, 0xB, 0xD)
	recs := []EvictionRecord{
		{Seq: 1, VictimKey: 0xA}, // next use at 2, distance 1
		{Seq: 2, VictimKey: 0xB}, // next use at 4, distance 2
		{Seq: 6, VictimKey: 0xD}, // never again (0xD's only use is before Seq)
	}
	a := Attribute(recs, pws, Options{Window: 100})
	if a.ReuseDist[1] != 1 || a.ReuseDist[2] != 1 {
		t.Errorf("buckets = %v, want one each in buckets 1 and 2", a.ReuseDist[:4])
	}
	var observed uint64
	for _, n := range a.ReuseDist {
		observed += n
	}
	if observed != 2 {
		t.Errorf("observed %d reuse distances, want 2", observed)
	}
}

// fakeSink counts forwarded events.
type fakeSink struct{ n int }

func (f *fakeSink) Emit(telemetry.Event) { f.n++ }

func TestCollectorCapturesEvictsAndTees(t *testing.T) {
	next := &fakeSink{}
	c := NewCollector()
	c.Next = next
	c.Emit(telemetry.Event{Kind: telemetry.EventHit, Seq: 1})
	c.Emit(telemetry.Event{Kind: telemetry.EventEvict, Seq: 2, VictimKey: 0x10,
		IncomingKey: 0x20, Reason: "lru_oldest", Score: 7, Policy: "lru"})
	c.Emit(telemetry.Event{Kind: telemetry.EventInsert, Seq: 3})
	if next.n != 3 {
		t.Errorf("next sink saw %d events, want all 3", next.n)
	}
	recs := c.Records()
	if len(recs) != 1 || c.Len() != 1 {
		t.Fatalf("captured %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.VictimKey != 0x10 || r.IncomingKey != 0x20 || r.Reason != "lru_oldest" ||
		r.Score != 7 || r.Policy != "lru" || r.Seq != 2 {
		t.Errorf("record fields lost: %+v", r)
	}
}

// TestReconciliationWithLiveCache drives a real cache and checks the three
// eviction counts agree: Stats.Evictions, uopcache_evictions_total, and the
// attribution total.
func TestReconciliationWithLiveCache(t *testing.T) {
	cfg := uopcache.Config{Entries: 4, Ways: 2, UopsPerEntry: 8, InsertDelay: 0}
	// Cycle enough distinct windows through 2 sets x 2 ways to force
	// evictions, with re-references so every class can appear.
	var pws []trace.PW
	for round := 0; round < 8; round++ {
		for k := uint64(0); k < 6; k++ {
			pws = append(pws, pw(0x100*(k+1), 8))
		}
	}
	reg := telemetry.NewRegistry()
	col := NewCollector()
	c := uopcache.New(cfg, policy.NewLRU())
	c.AttachMetrics(reg)
	c.SetEventSink(col)
	stats := uopcache.NewBehavior(c, nil, uopcache.Prepare(cfg, pws)).Run()
	if stats.Evictions == 0 {
		t.Fatal("test trace produced no evictions; widen it")
	}
	counter := reg.Counter("uopcache_evictions_total").Value()
	a := Attribute(col.Records(), pws, Options{})
	if a.Total != stats.Evictions || a.Total != counter {
		t.Fatalf("attribution total %d, Stats.Evictions %d, counter %d — must all agree",
			a.Total, stats.Evictions, counter)
	}
	if a.Justified+a.Premature+a.Divergent != a.Total {
		t.Fatalf("partition not exact: %d+%d+%d != %d", a.Justified, a.Premature, a.Divergent, a.Total)
	}
	if a.Window != DefaultWindow {
		t.Errorf("Window = %d, want DefaultWindow", a.Window)
	}
	if a.Policy == "" {
		t.Error("Policy not propagated from events")
	}
	for reason := range a.Reasons {
		if reason != policy.ReasonLRUOldest && reason != uopcache.ReasonForced {
			t.Errorf("unexpected reason %q from an LRU run", reason)
		}
	}
}

func TestCSVSchema(t *testing.T) {
	rows := []Attribution{
		{App: "kafka", Policy: "lru", Window: 4096, Total: 10, Justified: 6, Premature: 3, Divergent: 1},
	}
	rows[0].ReuseDist[3] = 4
	var sb strings.Builder
	if err := WriteCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != CSVHeader {
		t.Errorf("header = %q, want %q", lines[0], CSVHeader)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if want := "kafka,lru,4096,10,6,3,1,0.6000,0.3000,0.1000"; lines[1] != want {
		t.Errorf("row = %q, want %q", lines[1], want)
	}
	sb.Reset()
	if err := WriteRDCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != RDCSVHeader {
		t.Errorf("rd header = %q, want %q", lines[0], RDCSVHeader)
	}
	if want := "kafka,lru,3,4"; len(lines) != 2 || lines[1] != want {
		t.Errorf("rd rows = %v, want one row %q", lines[1:], want)
	}
}

func TestSummaryAndTotals(t *testing.T) {
	rows := []Attribution{
		{Total: 5, Justified: 3, Premature: 1, Divergent: 1},
		{Total: 7, Justified: 2, Premature: 5},
	}
	tot, j, p, d := Totals(rows)
	if tot != 12 || j != 5 || p != 6 || d != 1 {
		t.Errorf("Totals = %d/%d/%d/%d", tot, j, p, d)
	}
	if s := Summary(rows); !strings.Contains(s, "12 evictions") {
		t.Errorf("Summary = %q", s)
	}
}

func TestFractionSVG(t *testing.T) {
	rows := []Attribution{
		{App: "kafka", Policy: "lru", Total: 10, Justified: 6, Premature: 3, Divergent: 1},
		{App: "kafka", Policy: "srrip", Total: 10, Justified: 8, Premature: 2},
	}
	svg := FractionSVG("eviction attribution", rows)
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "justified") {
		t.Errorf("FractionSVG missing expected content:\n%.200s", svg)
	}
}
