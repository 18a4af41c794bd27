// Package plot renders experiment tables as standalone SVG charts, so the
// harness regenerates the paper's *figures*, not only their data. It
// implements grouped bar charts (the paper's dominant figure form: per-app
// bars, one series per policy) and line charts (the sensitivity sweeps),
// with no dependencies beyond the standard library.
package plot

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Series is one named data series.
type Series struct {
	Name   string
	Values []float64
}

// palette is a color-blind-friendly categorical palette.
var palette = []string{
	"#4477AA", "#EE6677", "#228833", "#CCBB44", "#66CCEE", "#AA3377",
	"#BBBBBB", "#000000",
}

const (
	chartW   = 900
	chartH   = 420
	marginL  = 70
	marginR  = 20
	marginT  = 48
	marginB  = 96
	legendDY = 16
)

// esc escapes text for SVG.
func esc(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}

// niceTicks returns ~5 rounded axis ticks covering [lo, hi].
func niceTicks(lo, hi float64) []float64 {
	if hi <= lo {
		hi = lo + 1
	}
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/5)))
	for span/step > 8 {
		step *= 2
	}
	for span/step < 3 {
		step /= 2
	}
	first := math.Floor(lo/step) * step
	var ticks []float64
	for v := first; v <= hi+float64(step/2); v += step {
		ticks = append(ticks, v)
	}
	return ticks
}

// header emits the SVG preamble, title, axes frame and y grid; it returns
// the plot-area geometry and a scale function.
func header(sb *strings.Builder, title, yLabel string, lo, hi float64) (plotW, plotH int, yOf func(float64) float64) {
	plotW = chartW - marginL - marginR
	plotH = chartH - marginT - marginB
	fmt.Fprintf(sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n", chartW, chartH)
	fmt.Fprintf(sb, `<rect width="%d" height="%d" fill="white"/>`+"\n", chartW, chartH)
	fmt.Fprintf(sb, `<text x="%d" y="24" font-size="15" font-weight="bold">%s</text>`+"\n", marginL, esc(title))
	yOf = func(v float64) float64 {
		return float64(marginT) + float64(float64(plotH)*(1-(v-lo)/(hi-lo)))
	}
	for _, tick := range niceTicks(lo, hi) {
		y := yOf(tick)
		if y < float64(marginT)-1 || y > float64(marginT+plotH)+1 {
			continue
		}
		fmt.Fprintf(sb, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n", marginL, y, marginL+plotW, y)
		fmt.Fprintf(sb, `<text x="%d" y="%.1f" font-size="11" text-anchor="end">%s</text>`+"\n", marginL-6, y+4, esc(trimFloat(tick)))
	}
	fmt.Fprintf(sb, `<text x="14" y="%d" font-size="12" transform="rotate(-90 14 %d)" text-anchor="middle">%s</text>`+"\n",
		marginT+plotH/2, marginT+plotH/2, esc(yLabel))
	fmt.Fprintf(sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n", marginL, marginT+plotH, marginL+plotW, marginT+plotH)
	return plotW, plotH, yOf
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// legend emits the series legend across the bottom.
func legend(sb *strings.Builder, series []Series) {
	x := marginL
	y := chartH - 12
	for i, s := range series {
		color := palette[i%len(palette)]
		fmt.Fprintf(sb, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", x, y-9, color)
		fmt.Fprintf(sb, `<text x="%d" y="%d" font-size="11">%s</text>`+"\n", x+14, y, esc(s.Name))
		x += 14 + 8*len(s.Name) + 24
		if x > chartW-120 && i < len(series)-1 {
			x = marginL
			y += legendDY
		}
	}
}

// bounds finds the data range across series, anchored at zero.
func bounds(series []Series) (lo, hi float64) {
	lo, hi = 0, 0
	for _, s := range series {
		for _, v := range s.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if lo == hi {
		hi = lo + 1
	}
	// Headroom.
	span := hi - lo
	hi += float64(0.05 * span)
	if lo < 0 {
		lo -= float64(0.05 * span)
	}
	return lo, hi
}

// BarSVG renders a grouped bar chart: one group per label, one bar per
// series within a group. Returns the SVG document.
func BarSVG(title, yLabel string, groups []string, series []Series) string {
	var sb strings.Builder
	lo, hi := bounds(series)
	plotW, plotH, yOf := header(&sb, title, yLabel, lo, hi)
	_ = plotH
	n := len(groups)
	if n == 0 || len(series) == 0 {
		sb.WriteString("</svg>\n")
		return sb.String()
	}
	groupW := float64(plotW) / float64(n)
	barW := groupW * 0.8 / float64(len(series))
	zeroY := yOf(0)
	for gi, g := range groups {
		gx := float64(marginL) + float64(groupW*float64(gi)) + float64(groupW*0.1)
		for si, s := range series {
			if gi >= len(s.Values) {
				continue
			}
			v := s.Values[gi]
			y := yOf(v)
			top, h := y, zeroY-y
			if v < 0 {
				top, h = zeroY, y-zeroY
			}
			fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s / %s: %s</title></rect>`+"\n",
				gx+float64(barW*float64(si)), top, barW*0.92, h, palette[si%len(palette)],
				esc(g), esc(s.Name), trimFloat(v))
		}
		fmt.Fprintf(&sb, `<text x="%.1f" y="%d" font-size="11" text-anchor="end" transform="rotate(-35 %.1f %d)">%s</text>`+"\n",
			gx+float64(groupW*0.4), marginT+plotH+14, gx+float64(groupW*0.4), marginT+plotH+14, esc(g))
	}
	legend(&sb, series)
	sb.WriteString("</svg>\n")
	return sb.String()
}

// LineSVG renders a multi-series line chart over shared x labels.
func LineSVG(title, yLabel string, xLabels []string, series []Series) string {
	var sb strings.Builder
	lo, hi := bounds(series)
	plotW, plotH, yOf := header(&sb, title, yLabel, lo, hi)
	n := len(xLabels)
	if n == 0 || len(series) == 0 {
		sb.WriteString("</svg>\n")
		return sb.String()
	}
	xOf := func(i int) float64 {
		if n == 1 {
			return float64(marginL + plotW/2)
		}
		return float64(marginL) + float64(plotW)*float64(i)/float64(n-1)
	}
	for i, xl := range xLabels {
		fmt.Fprintf(&sb, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n",
			xOf(i), marginT+plotH+16, esc(xl))
	}
	for si, s := range series {
		color := palette[si%len(palette)]
		var pts []string
		for i, v := range s.Values {
			if i >= n {
				break
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xOf(i), yOf(v)))
		}
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), color)
		for i, v := range s.Values {
			if i >= n {
				break
			}
			fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"><title>%s @ %s: %s</title></circle>`+"\n",
				xOf(i), yOf(v), color, esc(s.Name), esc(xLabels[i]), trimFloat(v))
		}
	}
	legend(&sb, series)
	sb.WriteString("</svg>\n")
	return sb.String()
}
