// Package report renders the study's tables and figures as aligned
// ASCII tables and text bar charts — the presentation layer behind
// cmd/osdiv.
package report

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Table is a rectangular dataset with a header row.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and columns.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row, padding or truncating to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowValues appends one row, rendering each value with %v.
func (t *Table) AddRowValues(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		row = append(row, fmt.Sprint(c))
	}
	t.AddRow(row...)
}

// WriteASCII renders the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// BarChart renders labeled horizontal bars scaled to fit width.
type BarChart struct {
	Title string
	Width int // bar area width in characters; default 40
	bars  []bar
}

type bar struct {
	label string
	value float64
}

// NewBarChart creates an empty chart.
func NewBarChart(title string) *BarChart { return &BarChart{Title: title, Width: 40} }

// Add appends one labeled bar.
func (c *BarChart) Add(label string, value float64) {
	c.bars = append(c.bars, bar{label: label, value: value})
}

// Write renders the chart.
func (c *BarChart) Write(w io.Writer) error {
	maxVal := 0.0
	labelW := 0
	for _, b := range c.bars {
		if b.value > maxVal {
			maxVal = b.value
		}
		if len(b.label) > labelW {
			labelW = len(b.label)
		}
	}
	var sb strings.Builder
	if c.Title != "" {
		sb.WriteString(c.Title)
		sb.WriteByte('\n')
	}
	for _, b := range c.bars {
		n := 0
		if maxVal > 0 {
			n = int(b.value / maxVal * float64(c.Width))
		}
		sb.WriteString(b.label)
		sb.WriteString(strings.Repeat(" ", labelW-len(b.label)))
		sb.WriteString(" |")
		sb.WriteString(strings.Repeat("#", n))
		fmt.Fprintf(&sb, " %s\n", trimFloat(b.value))
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// YearSeries renders one or more year-indexed series side by side —
// the textual stand-in for Figure 2's temporal plots.
type YearSeries struct {
	Title  string
	names  []string
	series []map[int]int
}

// NewYearSeries creates an empty series plot.
func NewYearSeries(title string) *YearSeries { return &YearSeries{Title: title} }

// Add appends a named series.
func (ys *YearSeries) Add(name string, data map[int]int) {
	ys.names = append(ys.names, name)
	ys.series = append(ys.series, data)
}

// Write renders a year-by-year table of all series.
func (ys *YearSeries) Write(w io.Writer) error {
	yearSet := make(map[int]bool)
	for _, s := range ys.series {
		for y := range s {
			yearSet[y] = true
		}
	}
	years := make([]int, 0, len(yearSet))
	for y := range yearSet {
		years = append(years, y)
	}
	sort.Ints(years)

	t := NewTable(ys.Title, append([]string{"Year"}, ys.names...)...)
	for _, y := range years {
		cells := make([]string, 0, len(ys.series)+1)
		cells = append(cells, strconv.Itoa(y))
		for _, s := range ys.series {
			cells = append(cells, strconv.Itoa(s[y]))
		}
		t.AddRow(cells...)
	}
	return t.WriteASCII(w)
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 1, 64)
}
