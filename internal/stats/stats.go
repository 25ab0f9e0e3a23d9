// Package stats provides small table/series containers and text renderers
// (aligned tables, CSV) used by the experiment harness and the
// command-line tools to print paper-style tables and figure data.
package stats

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-oriented results table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Values are converted with Format.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = Format(v)
	}
	t.Rows = append(t.Rows, row)
}

// Format renders a single cell value: floats get a compact fixed-point
// representation, everything else uses the default formatting.
func Format(v interface{}) string {
	switch x := v.(type) {
	case float64:
		return formatFloat(x)
	case float32:
		return formatFloat(float64(x))
	case string:
		return x
	default:
		return fmt.Sprintf("%v", v)
	}
}

func formatFloat(x float64) string {
	if x == float64(int64(x)) && x < 1e15 && x > -1e15 {
		return strconv.FormatInt(int64(x), 10)
	}
	return strconv.FormatFloat(x, 'f', 2, 64)
}

// Render returns the table as an aligned plain-text table.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// pad right-pads s with spaces to the given display width (runes, not bytes,
// so multi-byte cells like "62.1 ±1.9" align).
func pad(s string, width int) string {
	if n := utf8.RuneCountInString(s); n < width {
		return s + strings.Repeat(" ", width-n)
	}
	return s
}

// CSV returns the table as comma-separated values (RFC-4180 style quoting for
// cells containing commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(csvEscape(cell))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}

// Series is a named sequence of (x, y) points, the unit of data behind each
// curve in the paper's figures.
type Series struct {
	Name   string
	Points []Point
}

// Point is one sample of a series. Err is an optional symmetric error-bar
// half-width (0 = no error bar): a Monte-Carlo campaign sets it to the 95%
// confidence half-width on the replicated mean.
type Point struct {
	X   float64
	Y   float64
	Err float64
}

// Add appends a point to the series.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// AddErr appends a point carrying a symmetric error bar of half-width err.
func (s *Series) AddErr(x, y, err float64) {
	s.Points = append(s.Points, Point{X: x, Y: y, Err: err})
}

// Chart is a collection of series sharing an x axis, with a simple ASCII
// renderer used by the examples and cmd/etbench to visualise figures in the
// terminal.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewChart creates an empty chart.
func NewChart(title, xLabel, yLabel string) *Chart {
	return &Chart{Title: title, XLabel: xLabel, YLabel: yLabel}
}

// AddSeries appends a new named series and returns it for population.
func (c *Chart) AddSeries(name string) *Series {
	s := &Series{Name: name}
	c.Series = append(c.Series, s)
	return s
}

// Render draws a crude horizontal-bar representation of the chart: one block
// of bars per x value, one bar per series, scaled to the chart's maximum.
func (c *Chart) Render(width int) string {
	if width < 10 {
		width = 10
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	max := 0.0
	for _, s := range c.Series {
		for _, p := range s.Points {
			if v := p.Y + p.Err; v > max {
				max = v
			}
		}
	}
	if max <= 0 {
		max = 1
	}
	nameWidth := 0
	for _, s := range c.Series {
		if n := utf8.RuneCountInString(s.Name); n > nameWidth {
			nameWidth = n
		}
	}
	// Collect the union of x values in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range c.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	for _, x := range xs {
		fmt.Fprintf(&b, "%s = %s\n", c.XLabel, Format(x))
		for _, s := range c.Series {
			p, ok := s.lookupPoint(x)
			if !ok {
				continue
			}
			bars := int(p.Y / max * float64(width))
			if bars < 0 {
				bars = 0
			}
			label := Format(p.Y)
			whisker := ""
			if p.Err > 0 {
				// Error bar: dashes span the ±Err interval around the bar end,
				// and the label carries the numeric half-width.
				lo := int((p.Y - p.Err) / max * float64(width))
				hi := int((p.Y + p.Err) / max * float64(width))
				if lo < 0 {
					lo = 0
				}
				if lo < bars {
					bars = lo
				}
				if hi > bars {
					whisker = strings.Repeat("-", hi-bars)
				}
				label = fmt.Sprintf("%s ±%s", Format(p.Y), Format(p.Err))
			}
			fmt.Fprintf(&b, "  %s  %s%s %s\n", pad(s.Name, nameWidth), strings.Repeat("#", bars), whisker, label)
		}
	}
	fmt.Fprintf(&b, "(%s; bar length proportional to %s, full scale = %s)\n", c.XLabel, c.YLabel, Format(max))
	return b.String()
}

// sparkLevels are the eight block glyphs of a sparkline, lowest first.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders ys as a one-line unicode block sparkline of at most
// width cells, scaled between the series' minimum and maximum. When the
// series is longer than the width, each cell shows the maximum of its bucket
// (the right choice for the monotone best-so-far curves it renders in
// etopt); shorter series use one cell per sample. A flat or empty series
// renders as all-bottom blocks.
func Sparkline(ys []float64, width int) string {
	if len(ys) == 0 {
		return ""
	}
	if width < 1 || width > len(ys) {
		width = len(ys)
	}
	min, max := ys[0], ys[0]
	for _, y := range ys {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	out := make([]rune, width)
	for i := range out {
		lo, hi := i*len(ys)/width, (i+1)*len(ys)/width
		cell := ys[lo]
		for _, y := range ys[lo:hi] {
			if y > cell {
				cell = y
			}
		}
		level := 0
		if max > min {
			level = int((cell - min) / (max - min) * float64(len(sparkLevels)-1))
		}
		out[i] = sparkLevels[level]
	}
	return string(out)
}

// lookupPoint returns the first point of the series at the given x.
func (s *Series) lookupPoint(x float64) (Point, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p, true
		}
	}
	return Point{}, false
}
