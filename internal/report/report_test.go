package report

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("Pairs", "Pair", "All", "Remote")
	t.AddRow("OpenBSD-NetBSD", "40", "16")
	t.AddRowValues("Windows2000-Windows2003", 253, 81)
	return t
}

func TestWriteASCII(t *testing.T) {
	var b strings.Builder
	if err := sampleTable().WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("ASCII output has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Pairs") {
		t.Errorf("missing title: %q", lines[0])
	}
	if !strings.Contains(lines[1], "Pair") || !strings.Contains(lines[1], "Remote") {
		t.Errorf("missing header: %q", lines[1])
	}
	if !strings.Contains(out, "253") {
		t.Error("missing cell value")
	}
	// Alignment: the two data rows place the second column at one offset.
	idx1 := strings.Index(lines[3], "40")
	idx2 := strings.Index(lines[4], "253")
	if idx1 < 0 || idx2 < 0 || idx1 != idx2 {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestRowPadding(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.AddRow("only-one")
	tbl.AddRow("x", "y", "z", "dropped")
	var b strings.Builder
	if err := tbl.WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "dropped") {
		t.Error("extra cell not truncated")
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("Figure 3")
	c.Add("Debian", 16)
	c.Add("Set1", 10)
	c.Add("Zero", 0)
	var b strings.Builder
	if err := c.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("chart lines = %d:\n%s", len(lines), out)
	}
	debianBars := strings.Count(lines[1], "#")
	set1Bars := strings.Count(lines[2], "#")
	if debianBars <= set1Bars {
		t.Errorf("bar lengths not proportional: %d vs %d", debianBars, set1Bars)
	}
	if strings.Count(lines[3], "#") != 0 {
		t.Error("zero bar has hashes")
	}
	if debianBars != 40 {
		t.Errorf("max bar should fill width 40, got %d", debianBars)
	}
}

func TestYearSeries(t *testing.T) {
	ys := NewYearSeries("Figure 2a")
	ys.Add("Solaris", map[int]int{1999: 18, 2000: 22})
	ys.Add("OpenSolaris", map[int]int{2008: 12})
	var b strings.Builder
	if err := ys.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Year", "Solaris", "OpenSolaris", "1999", "2008", "18", "12"} {
		if !strings.Contains(out, want) {
			t.Errorf("series output missing %q:\n%s", want, out)
		}
	}
	// Missing years render as zero.
	if !strings.Contains(out, "0") {
		t.Error("missing zero fill")
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(16) != "16" || trimFloat(2.5) != "2.5" {
		t.Errorf("trimFloat wrong: %q %q", trimFloat(16), trimFloat(2.5))
	}
}
