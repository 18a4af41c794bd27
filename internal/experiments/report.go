package experiments

import (
	"fmt"
	"io"
	"strings"
)

// SummaryLine is one paper-vs-measured comparison extracted from a
// generated table.
type SummaryLine struct {
	Experiment string
	Metric     string
	Paper      string
	Measured   string
}

// summarize extracts the headline comparison(s) for an experiment.
func summarize(t *Table) []SummaryLine {
	m := func(col string) string {
		if v, ok := meanOf(t, col); ok {
			return fmt.Sprintf("%.2f%%", v)
		}
		return "n/a"
	}
	switch t.Name {
	case "fig2":
		return []SummaryLine{
			{t.Name, "perfect micro-op cache PPW gain (mean)", "7.41% (largest of all structures)", m("perfect uop cache")},
		}
	case "sec3b":
		return []SummaryLine{
			{t.Name, "LRU misses: cold / capacity / conflict", "0.89% / 88.31% / 10.8%",
				texts(t, t.find("MEAN", "lru"), "cold", "capacity", "conflict")},
		}
	case "sec3e":
		return []SummaryLine{
			{t.Name, "frac. reuse distance > 30: PW / icache / BTB", ">20% / ~10% / ~2%",
				texts(t, t.find("MEAN"), "PW frac > 30", "icache-line frac > 30", "branch-PC frac > 30")},
		}
	case "fig5":
		return []SummaryLine{
			{t.Name, "best existing online policy (mean reduction)", "GHRP 7.81%",
				fmt.Sprintf("ghrp %s, thermometer %s", m("ghrp"), m("thermometer"))},
			{t.Name, "FLACK offline bound (mean reduction)", "30.21%", m("flack")},
		}
	case "fig8":
		return []SummaryLine{
			{t.Name, "FURBYS miss reduction (mean)", "14.34%", m("furbys")},
			{t.Name, "FURBYS as fraction of FLACK", "57.85%", ratio(t, "furbys", "flack")},
		}
	case "fig9":
		return []SummaryLine{{t.Name, "FURBYS PPW gain (mean)", "3.10%", m("furbys")}}
	case "fig10":
		return []SummaryLine{
			{t.Name, "FLACK vs Belady (mean reduction)", "+4.46pp", diff(t, "flack", "belady")},
			{t.Name, "raw FOO vs LRU", "worse on some apps", m("foo")},
		}
	case "fig11":
		return []SummaryLine{
			{t.Name, "FURBYS IPC speedup (mean)", "0.47-0.49%", m("furbys")},
			{t.Name, "FURBYS as fraction of infinite uop cache", "28.48%", ratio(t, "furbys", "infinite uop cache")},
		}
	case "fig12":
		return []SummaryLine{{t.Name, "LRU capacity needed to match FURBYS@512", "~1.5x (2x for Postgres)", isoCapacity(t)}}
	case "fig13":
		return fig13Summary(t)
	case "fig14":
		return []SummaryLine{
			{t.Name, "energy-saving shares: icache / insertion / decoder", "7.75% / 73.26% / 16.35%",
				texts(t, t.find("MEAN"), "icache", "uop-cache insertion", "decoder")},
		}
	case "fig15":
		return []SummaryLine{
			{t.Name, "FLACK profile vs Belady profile", "+3.47pp", diff(t, "flack-profile", "belady-profile")},
			{t.Name, "FLACK profile vs FOO profile", "+4.39pp", diff(t, "flack-profile", "foo-profile")},
		}
	case "fig17":
		return []SummaryLine{{t.Name, "FURBYS PPW gain on Zen4 (mean)", "2.41%", m("furbys")}}
	case "fig18":
		return []SummaryLine{{t.Name, "cross-input retention of same-input reduction", "94.34%", ratio(t, "cross-input", "same-input")}}
	case "fig19":
		return []SummaryLine{{t.Name, "weight-bits knee", "3 bits", kneeOf(t)}}
	case "fig20":
		return []SummaryLine{{t.Name, "pitfall-detector depth knee", "depth 2", kneeOf(t)}}
	case "fig21":
		return []SummaryLine{{t.Name, "bypass benefit (mean)", "+4.33pp", diff(t, "bypass on", "bypass off")}}
	case "coverage":
		return []SummaryLine{
			{t.Name, "victims selected by FURBYS (vs SRRIP fallback)", "88.68%", m("furbys-selected victims")},
			{t.Name, "insertions bypassed", "~30%", m("bypassed insertions")},
		}
	case "sens-inclusion":
		return []SummaryLine{
			{t.Name, "FURBYS IPC speedup, inclusive vs non-inclusive", "0.48% vs 2.5%",
				fmt.Sprintf("%s vs %s", m("inclusive: FURBYS IPC speedup"), m("non-inclusive: FURBYS IPC speedup"))},
		}
	default:
		return nil
	}
}

// ratio formats mean(a)/mean(b) as a percentage.
func ratio(t *Table, a, b string) string {
	va, oka := meanOf(t, a)
	vb, okb := meanOf(t, b)
	if !oka || !okb || vb == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", 100*va/vb)
}

// diff formats mean(a)-mean(b) in percentage points.
func diff(t *Table, a, b string) string {
	va, oka := meanOf(t, a)
	vb, okb := meanOf(t, b)
	if !oka || !okb {
		return "n/a"
	}
	return fmt.Sprintf("%+.2fpp", va-vb)
}

// texts joins row's rendered cells in the named columns with " / ", or
// reads "n/a" when the row or a column is missing.
func texts(t *Table, row []Cell, cols ...string) string {
	parts := make([]string, len(cols))
	for i, col := range cols {
		j := t.col(col)
		if j < 0 || j >= len(row) {
			return "n/a"
		}
		parts[i] = row[j].String()
	}
	return strings.Join(parts, " / ")
}

// isoCapacity names the smallest LRU configuration of fig12 whose miss rate
// is no higher than FURBYS@512's (isoMatch).
func isoCapacity(t *Table) string {
	if _, ok := t.num(t.find("furbys@512"), fig12MissRate); !ok {
		return "n/a"
	}
	i := isoMatch(t)
	if i < 0 {
		return ">2x (never matched)"
	}
	rc := fig12Configs[i]
	return fmt.Sprintf("%s (%.2fx)", rc.label, float64(rc.entries)/512)
}

// fig12MissRate is the fig12 column isoMatch compares.
const fig12MissRate = "mean uop miss rate"

// isoMatch returns the index in fig12Configs of the smallest LRU
// configuration above 512 entries whose miss rate is no higher than
// FURBYS@512's, or -1 when none is (or FURBYS@512 is missing).
func isoMatch(t *Table) int {
	furbys, ok := t.num(t.find("furbys@512"), fig12MissRate)
	if !ok {
		return -1
	}
	for i, rc := range fig12Configs {
		if rc.furbys || rc.entries == 512 {
			continue
		}
		if v, ok := t.num(t.find(rc.label), fig12MissRate); ok && v <= furbys {
			return i
		}
	}
	return -1
}

// fig13Summary puts the paper's quantities next to the paper's values: the
// baseline's decoder and icache shares, LRU's total change against no
// micro-op cache, and FURBYS's total change against LRU.
func fig13Summary(t *Table) []SummaryLine {
	const total = "total vs no-uop-cache"
	lru, okL := t.num(t.find("lru"), total)
	furbys, okF := t.num(t.find("furbys"), total)
	lruDelta, further := "n/a", "n/a"
	if okL {
		lruDelta = fmt.Sprintf("%.2f%%", lru-100)
	}
	if okL && okF && lru != 0 {
		further = fmt.Sprintf("%.2f%%", 100*(furbys/lru-1))
	}
	return []SummaryLine{
		{t.Name, "baseline decoder / icache power share", "12.5% / 7.7%", texts(t, t.find("no uop cache"), "decoder", "icache")},
		{t.Name, "LRU uop cache total energy vs baseline", "-8.1%", lruDelta},
		{t.Name, "FURBYS total energy vs LRU", "further -2.2%", further},
	}
}

// kneeOf reports the swept value (column 0) after which the final numeric
// column stops improving by more than 0.5pp.
func kneeOf(t *Table) string {
	last := t.Columns[len(t.Columns)-1]
	prev := -1e18
	for _, r := range t.Rows {
		v, ok := t.num(r, last)
		if !ok {
			continue
		}
		if prev > -1e17 && v-prev < 0.5 {
			return "at " + r[0].String() + " (diminishing returns)"
		}
		prev = v
	}
	if len(t.Rows) > 0 {
		return "at " + t.Rows[len(t.Rows)-1][0].String() + " (still improving)"
	}
	return "n/a"
}

// WriteReport renders the paper-vs-measured summary plus every table as
// markdown — the generated core of EXPERIMENTS.md.
func WriteReport(w io.Writer, tables []*Table, checks []CheckResult) error {
	ew := &errWriter{w: w}
	fmt.Fprintln(ew, "## Paper vs. measured — headline comparisons")
	fmt.Fprintln(ew)
	fmt.Fprintln(ew, "| experiment | metric | paper | measured |")
	fmt.Fprintln(ew, "| --- | --- | --- | --- |")
	for _, t := range tables {
		for _, s := range summarize(t) {
			fmt.Fprintf(ew, "| %s | %s | %s | %s |\n", s.Experiment, s.Metric, s.Paper, s.Measured)
		}
	}
	fmt.Fprintln(ew)
	fmt.Fprintln(ew, "## Shape checks")
	fmt.Fprintln(ew)
	pass, fail := 0, 0
	for _, c := range checks {
		pass += len(c.Passed)
		fail += len(c.Failed)
		for _, f := range c.Failed {
			fmt.Fprintf(ew, "- **FAIL** `%s`: %s\n", c.Experiment, f)
		}
	}
	fmt.Fprintf(ew, "\n%d claims checked, %d passed, %d failed.\n\n", pass+fail, pass, fail)
	fmt.Fprintln(ew, "## Full tables")
	fmt.Fprintln(ew)
	if ew.err != nil {
		return ew.err
	}
	for _, t := range tables {
		if err := t.Markdown(w); err != nil {
			return err
		}
	}
	return nil
}
