package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestSummarizeFig8(t *testing.T) {
	tbl := mkTable("fig8",
		[]string{"application", "srrip", "ship++", "mockingjay", "ghrp", "thermometer", "furbys", "flack"},
		row("MEAN", 5, 6, 4, 7, 10, 15, 30),
	)
	lines := summarize(tbl)
	if len(lines) != 2 {
		t.Fatalf("lines = %+v", lines)
	}
	if lines[0].Measured != "15.00%" {
		t.Errorf("furbys measured = %s", lines[0].Measured)
	}
	if lines[1].Measured != "50.00%" { // 15/30
		t.Errorf("fraction of FLACK = %s", lines[1].Measured)
	}
}

func TestSummarizeDiff(t *testing.T) {
	tbl := mkTable("fig10",
		[]string{"application", "belady", "foo", "foo+A", "foo+A+VC", "flack"},
		row("MEAN", 26, -3, 28, 38, 39),
	)
	lines := summarize(tbl)
	if lines[0].Measured != "+13.00pp" {
		t.Errorf("flack-belady = %s", lines[0].Measured)
	}
}

func TestIsoCapacityExtraction(t *testing.T) {
	tbl := mkTable("fig12",
		[]string{"configuration", "mean uop miss rate", "mean IPC", "red"},
		fig12Row("lru@512", 0.15, 1.2, 0),
		fig12Row("lru@640", 0.14, 1.21, 5),
		fig12Row("lru@768", 0.12, 1.22, 15),
		fig12Row("furbys@512", 0.125, 1.22, 12),
	)
	lines := summarize(tbl)
	if !strings.Contains(lines[0].Measured, "lru@768") || !strings.Contains(lines[0].Measured, "1.50x") {
		t.Errorf("iso capacity = %s", lines[0].Measured)
	}
	// Never matched case.
	tbl2 := mkTable("fig12",
		[]string{"configuration", "mean uop miss rate", "mean IPC", "red"},
		fig12Row("lru@512", 0.15, 1.2, 0),
		fig12Row("lru@1024", 0.13, 1.22, 10),
		fig12Row("furbys@512", 0.10, 1.25, 30),
	)
	if got := summarize(tbl2)[0].Measured; !strings.Contains(got, "never matched") {
		t.Errorf("unmatched iso = %s", got)
	}
}

func TestKneeOf(t *testing.T) {
	tbl := mkTable("fig19",
		[]string{"bits", "groups", "mean reduction"},
		[]Cell{Count(1), Count(2), Pct(0.08)},
		[]Cell{Count(2), Count(4), Pct(0.12)},
		[]Cell{Count(3), Count(8), Pct(0.14)},
		[]Cell{Count(4), Count(16), Pct(0.141)},
	)
	lines := summarize(tbl)
	if !strings.Contains(lines[0].Measured, "at 4") {
		t.Errorf("knee = %s", lines[0].Measured)
	}
}

func TestWriteReport(t *testing.T) {
	tbl := mkTable("fig8",
		[]string{"application", "srrip", "ship++", "mockingjay", "ghrp", "thermometer", "furbys", "flack"},
		row("kafka", 5, 6, 4, 7, 10, 15, 30),
		row("MEAN", 5, 6, 4, 7, 10, 15, 30),
	)
	checkRes := Check(tbl)
	var buf bytes.Buffer
	if err := WriteReport(&buf, []*Table{tbl}, []CheckResult{checkRes}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Paper vs. measured", "| fig8 | FURBYS miss reduction (mean) | 14.34% | 15.00% |",
		"Shape checks", "passed", "Full tables",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestSummarizeFig13 pins the headline rows' quantities: LRU's total less
// the no-uop-cache baseline, and FURBYS's total relative to LRU's.
func TestSummarizeFig13(t *testing.T) {
	tbl := mkTable("fig13",
		[]string{"configuration", "decoder", "icache", "uop cache", "others", "total vs no-uop-cache"},
		row("no uop cache", 13.08, 3.59, 0, 83.34, 100),
		row("lru", 2.44, 0.67, 1.73, 95.16, 67.78),
		row("furbys", 2.03, 0.59, 1.61, 95.76, 67.06),
	)
	var got []string
	for _, l := range summarize(tbl) {
		got = append(got, l.Measured)
	}
	want := []string{"13.08% / 3.59%", "-32.22%", "-1.06%"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("fig13 measured = %q, want %q", got, want)
	}
}

func TestSummarizeUnknownEmpty(t *testing.T) {
	if got := summarize(mkTable("tab1", []string{"a", "b"})); got != nil {
		t.Errorf("tab1 summary = %v", got)
	}
}
