package plot

import (
	"encoding/xml"
	"strings"
	"testing"
)

func validXML(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("invalid XML: %v\n%s", err, svg)
		}
	}
}

func TestBarSVGWellFormed(t *testing.T) {
	svg := BarSVG("Miss reduction", "percent", []string{"kafka", "postgres"},
		[]Series{
			{Name: "furbys", Values: []float64{14.3, 1.9}},
			{Name: "flack", Values: []float64{30.2, 33.5}},
		})
	validXML(t, svg)
	for _, want := range []string{"<svg", "Miss reduction", "kafka", "furbys", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Errorf("missing %q in SVG", want)
		}
	}
}

func TestBarSVGNegativeValues(t *testing.T) {
	svg := BarSVG("t", "y", []string{"a"}, []Series{{Name: "s", Values: []float64{-5}}})
	validXML(t, svg)
	if !strings.Contains(svg, "<rect") {
		t.Error("negative bar not drawn")
	}
}

func TestBarSVGEmpty(t *testing.T) {
	validXML(t, BarSVG("t", "y", nil, nil))
	validXML(t, BarSVG("t", "y", []string{"a"}, nil))
}

func TestLineSVGWellFormed(t *testing.T) {
	svg := LineSVG("Sweep", "percent", []string{"1", "2", "3"},
		[]Series{{Name: "furbys", Values: []float64{5, 12, 14}}})
	validXML(t, svg)
	if !strings.Contains(svg, "<polyline") || !strings.Contains(svg, "<circle") {
		t.Error("line chart missing marks")
	}
}

func TestLineSVGSinglePoint(t *testing.T) {
	validXML(t, LineSVG("t", "y", []string{"x"}, []Series{{Name: "s", Values: []float64{1}}}))
}

func TestEscaping(t *testing.T) {
	svg := BarSVG("a<b & c>d", "y", []string{"g&g"}, []Series{{Name: "s<s", Values: []float64{1}}})
	validXML(t, svg)
	if strings.Contains(svg, "a<b") {
		t.Error("title not escaped")
	}
}

func TestNiceTicks(t *testing.T) {
	ticks := niceTicks(0, 10)
	if len(ticks) < 3 || len(ticks) > 12 {
		t.Errorf("ticks = %v", ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Errorf("non-increasing ticks: %v", ticks)
		}
	}
	if got := niceTicks(5, 5); len(got) < 2 {
		t.Errorf("degenerate range ticks = %v", got)
	}
}
