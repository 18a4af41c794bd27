package experiments

import (
	"io"
	"math"
	"strconv"

	"uopsim/internal/plot"
)

// Table is an experiment's result: labels and numbers, rendered as text only
// at the edge (CSV, Markdown, the report's measured column).
type Table struct {
	Name    string
	Title   string
	Columns []string
	Rows    [][]Cell
	// Notes records paper-vs-measured commentary.
	Notes []string
}

// Cell is one table cell: a label, or a number with the decimals that render
// it. A number holds the value its rendered text shows, so every claim,
// summary and chart reads exactly what the CSV prints.
type Cell struct {
	text     string  // a label's text
	num      float64 // a number, rounded to decimals
	decimals int8    // digits after the point; -1 marks a label
	pct      bool    // rendered with a trailing '%'
}

// Label is a text cell.
func Label(s string) Cell { return Cell{text: s, decimals: -1} }

// Fixed is v shown with the given number of decimals ("%.4f", "%.2f", ...).
func Fixed(v float64, decimals int) Cell {
	return Cell{num: rounded(v, decimals), decimals: int8(decimals)}
}

// Pct is the fraction f shown as a percentage with two decimals: 0.1234
// renders "12.34%" and holds 12.34.
func Pct(f float64) Cell {
	c := Fixed(100*f, 2)
	c.pct = true
	return c
}

// Count is an integer count.
func Count[N ~int | ~uint64](n N) Cell { return Cell{num: float64(n)} }

// Number returns a numeric cell's value; ok is false for a label.
func (c Cell) Number() (v float64, ok bool) { return c.num, c.decimals >= 0 }

// String renders the cell as the CSV prints it.
func (c Cell) String() string { return string(c.appendTo(nil)) }

// is reports whether the cell is the label s.
func (c Cell) is(s string) bool { return c.decimals < 0 && c.text == s }

func (c Cell) appendTo(b []byte) []byte {
	if c.decimals < 0 {
		return append(b, c.text...)
	}
	b = strconv.AppendFloat(b, c.num, 'f', int(c.decimals), 64)
	if c.pct {
		b = append(b, '%')
	}
	return b
}

// rounded returns v rounded to decimals the way strconv's 'f' format rounds
// it (to nearest, ties to even, on v's exact binary value), as the float64
// nearest that decimal: the number a reader of the rendered text sees.
// Formatting the result again prints the same text, a negative zero
// included. It holds for |v|·10^decimals below 2^52.
func rounded(v float64, decimals int) float64 {
	scale := math.Pow10(decimals)
	y := v * scale
	k := math.RoundToEven(y)
	// The product may round onto a half; err, the exact rounding error,
	// says on which side of it v·scale lies.
	err := math.FMA(v, scale, -y)
	switch t := y - k; {
	case t == 0.5 && err > 0:
		k++
	case t == -0.5 && err < 0:
		k--
	}
	return k / scale
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...Cell) { t.Rows = append(t.Rows, cells) }

// addAppPcts appends one row of percentages per application, in app order,
// then the MEAN row: each column's per-app sum (added in app order) over
// the app count.
func (t *Table) addAppPcts(apps []string, rows [][]float64) {
	sums := make([]float64, len(t.Columns)-1)
	for i, app := range apps {
		row := []Cell{Label(app)}
		for j, v := range rows[i] {
			sums[j] += v
			row = append(row, Pct(v))
		}
		t.AddRow(row...)
	}
	row := []Cell{Label("MEAN")}
	for _, s := range sums {
		row = append(row, Pct(s/float64(len(apps))))
	}
	t.AddRow(row...)
}

// find returns the first row whose leading cells are the given labels, nil
// if none is.
func (t *Table) find(labels ...string) []Cell {
rows:
	for _, r := range t.Rows {
		if len(r) < len(labels) {
			continue
		}
		for i, l := range labels {
			if !r[i].is(l) {
				continue rows
			}
		}
		return r
	}
	return nil
}

// col returns the index of the column named exactly name, -1 if none is.
func (t *Table) col(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// num reads row's number in the column named exactly col; ok is false when
// the row is nil, the column is absent or its cell is a label.
func (t *Table) num(row []Cell, col string) (float64, bool) {
	i := t.col(col)
	if i < 0 || i >= len(row) {
		return 0, false
	}
	return row[i].Number()
}

// meanOf reads the MEAN row's number in column col.
func meanOf(t *Table, col string) (float64, bool) { return t.num(t.find("MEAN"), col) }

// Series returns the table as chart input. The first column's text labels
// the groups and every other column that holds a number becomes a series,
// its label cells plotting as zero; MEAN rows are left out. Both are nil
// when nothing is plottable.
func (t *Table) Series() (groups []string, series []plot.Series) {
	var rows [][]Cell
	for _, r := range t.Rows {
		if !r[0].is("MEAN") {
			rows = append(rows, r)
		}
	}
	for ci := 1; ci < len(t.Columns); ci++ {
		s := plot.Series{Name: t.Columns[ci], Values: make([]float64, len(rows))}
		numeric := false
		for ri, r := range rows {
			if v, ok := r[ci].Number(); ok {
				s.Values[ri], numeric = v, true
			}
		}
		if numeric {
			series = append(series, s)
		}
	}
	if len(series) == 0 {
		return nil, nil
	}
	for _, r := range rows {
		groups = append(groups, r[0].String())
	}
	return groups, series
}

// CSV writes the table as CSV.
func (t *Table) CSV(w io.Writer) error {
	return t.render(w, "", ",", "")
}

// Markdown writes the table as GitHub-flavoured markdown. Every write is
// error-checked (through a sticky-error writer) so a full disk or closed
// pipe surfaces instead of silently truncating a report.
func (t *Table) Markdown(w io.Writer) error {
	ew := &errWriter{w: w}
	io.WriteString(ew, "### "+t.Name+" — "+t.Title+"\n\n")
	t.render(ew, "| ", " | ", " |")
	for _, n := range t.Notes {
		io.WriteString(ew, "\n> "+n+"\n")
	}
	io.WriteString(ew, "\n")
	return ew.err
}

// render writes the header, a markdown separator row when open is set, and
// every row, each line framed by open and end with cells joined by sep.
func (t *Table) render(w io.Writer, open, sep, end string) error {
	line := func(b []byte, n int, cell func(b []byte, i int) []byte) []byte {
		b = append(b, open...)
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, sep...)
			}
			b = cell(b, i)
		}
		return append(append(b, end...), '\n')
	}
	b := line(nil, len(t.Columns), func(b []byte, i int) []byte { return append(b, t.Columns[i]...) })
	if open != "" {
		b = line(b, len(t.Columns), func(b []byte, _ int) []byte { return append(b, "---"...) })
	}
	for _, r := range t.Rows {
		b = line(b, len(r), func(b []byte, i int) []byte { return r[i].appendTo(b) })
	}
	_, err := w.Write(b)
	return err
}

// errWriter carries the first write error through a multi-write render.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}
