package stats

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestFormat(t *testing.T) {
	cases := []struct {
		in   interface{}
		want string
	}{
		{42, "42"},
		{3.0, "3"},
		{3.14159, "3.14"},
		{float32(2.5), "2.50"},
		{"hello", "hello"},
		{true, "true"},
	}
	for _, tc := range cases {
		if got := Format(tc.in); got != tc.want {
			t.Errorf("Format(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Table 2", "mesh", "J(EAR)", "J*", "ratio")
	tbl.AddRow("4x4", 62.8, 131.42, "47.8%")
	tbl.AddRow("8x8", 234.0, 525.69, "44.5%")
	if len(tbl.Rows) != 2 {
		t.Fatalf("table has %d rows, want 2", len(tbl.Rows))
	}
	out := tbl.Render()
	for _, want := range []string{"Table 2", "mesh", "J(EAR)", "62.80", "525.69", "44.5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Errorf("rendered table has %d lines, want 5:\n%s", len(lines), out)
	}
	// Columns must be aligned: every data line at least as long as the header line.
	header := lines[1]
	for _, l := range lines[2:] {
		if len(strings.TrimRight(l, " ")) > len(header)+20 {
			t.Errorf("line much longer than header, alignment broken: %q", l)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("plain", 1)
	tbl.AddRow("has,comma", "has\"quote")
	csv := tbl.CSV()
	wantLines := []string{
		"a,b",
		"plain,1",
		`"has,comma","has""quote"`,
	}
	got := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(got), len(wantLines), csv)
	}
	for i := range wantLines {
		if got[i] != wantLines[i] {
			t.Errorf("CSV line %d = %q, want %q", i, got[i], wantLines[i])
		}
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "EAR"}
	s.Add(4, 60)
	s.Add(5, 92)
	s.Add(8, 234)
	if len(s.Points) != 3 || s.Points[0] != (Point{X: 4, Y: 60}) || s.Points[2] != (Point{X: 8, Y: 234}) {
		t.Errorf("Points = %v", s.Points)
	}
	if p, ok := s.lookupPoint(5); !ok || p.Y != 92 {
		t.Errorf("lookupPoint(5) = %g, %v", p.Y, ok)
	}
	if _, ok := s.lookupPoint(7); ok {
		t.Error("lookup of missing x succeeded")
	}
}

func TestChartRender(t *testing.T) {
	c := NewChart("Fig 7: jobs completed", "mesh", "# of jobs")
	ear := c.AddSeries("EAR")
	sdr := c.AddSeries("SDR")
	ear.Add(4, 60)
	ear.Add(8, 150)
	sdr.Add(4, 8)
	sdr.Add(8, 15)
	out := c.Render(40)
	for _, want := range []string{"Fig 7", "mesh = 4", "mesh = 8", "EAR", "SDR", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart output missing %q:\n%s", want, out)
		}
	}
	// The EAR bar at mesh=8 must be the longest (full scale).
	lines := strings.Split(out, "\n")
	maxHashes, maxLine := 0, ""
	for _, l := range lines {
		n := strings.Count(l, "#")
		if n > maxHashes {
			maxHashes = n
			maxLine = l
		}
	}
	if !strings.Contains(maxLine, "EAR") || !strings.Contains(maxLine, "150") {
		t.Errorf("longest bar is %q, want the EAR/150 bar", maxLine)
	}
	// Tiny widths are clamped rather than panicking.
	if out := c.Render(1); out == "" {
		t.Error("Render with tiny width returned nothing")
	}
}

func TestChartRenderEmpty(t *testing.T) {
	c := NewChart("empty", "x", "y")
	if out := c.Render(20); !strings.Contains(out, "empty") {
		t.Errorf("empty chart render = %q", out)
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tbl := NewTable("title is not part of CSV", "col,with,commas", "plain")
	tbl.AddRow("line\nbreak", `quote " inside`)
	tbl.AddRow("", "trailing")
	csv := tbl.CSV()
	if strings.Contains(csv, "title is not part of CSV") {
		t.Error("CSV output leaked the table title")
	}
	if !strings.HasPrefix(csv, `"col,with,commas",plain`) {
		t.Errorf("comma-bearing header not quoted: %q", csv)
	}
	if !strings.Contains(csv, "\"line\nbreak\"") {
		t.Errorf("newline-bearing cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, `"quote "" inside"`) {
		t.Errorf("quote not doubled: %q", csv)
	}
	// An empty cell stays an empty field, not a quoted empty string.
	if !strings.Contains(csv, ",trailing") {
		t.Errorf("empty cell mangled: %q", csv)
	}
}

func TestTableRenderNoTitle(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow("v")
	out := tbl.Render()
	if strings.HasPrefix(out, "\n") {
		t.Errorf("untitled render starts with a blank line: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + separator + row
		t.Errorf("untitled render has %d lines, want 3: %q", len(lines), out)
	}
}

func TestRenderAlignsMultibyteCells(t *testing.T) {
	tbl := NewTable("", "jobs", "next")
	tbl.AddRow("62.1 ±1.9", "x")
	tbl.AddRow("600.0 ±10.0", "y")
	lines := strings.Split(strings.TrimRight(tbl.Render(), "\n"), "\n")
	// The second column must start at the same *rune* offset on every row:
	// "±" is multi-byte, so byte-based padding would shift the shorter cell.
	xCol := len([]rune(lines[2][:strings.IndexByte(lines[2], 'x')]))
	yCol := len([]rune(lines[3][:strings.IndexByte(lines[3], 'y')]))
	if xCol != yCol {
		t.Errorf("second column misaligned across multi-byte cells (%d vs %d):\n%s",
			xCol, yCol, strings.Join(lines, "\n"))
	}
}

func TestSeriesLookupEdgeCases(t *testing.T) {
	s := &Series{Name: "edge"}
	if _, ok := s.lookupPoint(0); ok {
		t.Error("lookup on empty series succeeded")
	}
	s.Add(1, 10)
	s.Add(1, 20) // duplicate x: first point wins
	if p, ok := s.lookupPoint(1); !ok || p.Y != 10 {
		t.Errorf("duplicate-x lookupPoint = %+v, %v; want first point 10", p, ok)
	}
	s.AddErr(2, 30, 5)
	if p, ok := s.lookupPoint(2); !ok || p.Err != 5 {
		t.Errorf("lookupPoint dropped the error bar: %+v", p)
	}
}

func TestChartRenderSinglePoint(t *testing.T) {
	c := NewChart("single", "x", "y")
	c.AddSeries("only").Add(3, 7)
	out := c.Render(20)
	for _, want := range []string{"x = 3", "only", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("single-point chart missing %q:\n%s", want, out)
		}
	}
}

func TestChartRenderSkipsEmptySeries(t *testing.T) {
	c := NewChart("mixed", "x", "y")
	c.AddSeries("empty")
	c.AddSeries("full").Add(1, 5)
	out := c.Render(20)
	if !strings.Contains(out, "full") {
		t.Errorf("chart lost the populated series:\n%s", out)
	}
	// The empty series has no point at x=1, so it must not render a bar row.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "empty") && strings.Contains(line, "#") {
			t.Errorf("empty series rendered a bar: %q", line)
		}
	}
}

func TestChartRenderErrorBars(t *testing.T) {
	c := NewChart("mc", "mesh", "jobs")
	s := c.AddSeries("EAR")
	s.AddErr(4, 50, 10)
	out := c.Render(40)
	if !strings.Contains(out, "±10") {
		t.Errorf("error bar half-width missing from label:\n%s", out)
	}
	// The whisker dashes span the CI beyond the shortened bar.
	var barLine string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "EAR") {
			barLine = l
		}
	}
	if !strings.Contains(barLine, "#") || !strings.Contains(barLine, "-") {
		t.Errorf("bar line missing whiskers: %q", barLine)
	}
	hashes := strings.Count(barLine, "#")
	dashes := strings.Count(barLine, "-")
	// Bar to (y-err)=40/60 of scale, whisker to (y+err)=60/60: the whisker is
	// roughly half the bar length.
	if hashes <= dashes {
		t.Errorf("bar (%d#) should be longer than the whisker (%d-): %q", hashes, dashes, barLine)
	}
	// A zero-error point renders without any whisker or ± label.
	c2 := NewChart("plain", "x", "y")
	c2.AddSeries("S").Add(1, 5)
	if out := c2.Render(20); strings.Contains(out, "±") {
		t.Errorf("zero-error point rendered an error bar:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Errorf("empty series rendered %q", got)
	}
	// A monotone ramp uses the full glyph range, lowest first.
	ramp := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if ramp != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp = %q", ramp)
	}
	// A flat series renders as all-bottom blocks.
	if got := Sparkline([]float64{3, 3, 3}, 3); got != "▁▁▁" {
		t.Errorf("flat = %q", got)
	}
	// Downsampling keeps the bucket maxima, so the peak survives.
	wide := make([]float64, 100)
	wide[57] = 9
	got := Sparkline(wide, 10)
	if utf8.RuneCountInString(got) != 10 {
		t.Fatalf("downsampled width = %d runes (%q)", utf8.RuneCountInString(got), got)
	}
	if !strings.Contains(got, "█") {
		t.Errorf("downsampling lost the peak: %q", got)
	}
	// Width wider than the series falls back to one cell per sample.
	if got := Sparkline([]float64{1, 2}, 50); utf8.RuneCountInString(got) != 2 {
		t.Errorf("short series width = %q", got)
	}
}
