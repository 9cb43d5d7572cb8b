package textplot

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestLineBasic(t *testing.T) {
	var buf bytes.Buffer
	s := Series{Name: "P(p,t)", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 4, 9}, Glyph: 'o'}
	if err := Line(&buf, []Series{s}, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "o") {
		t.Fatal("glyph missing")
	}
	if !strings.Contains(out, "P(p,t)") {
		t.Fatal("legend missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// height rows + axis + x labels + legend
	if len(lines) != 10+1+1+1 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
}

func TestLineMultiSeries(t *testing.T) {
	var buf bytes.Buffer
	a := Series{Name: "up", X: []float64{0, 1}, Y: []float64{0, 1}, Glyph: '*'}
	b := Series{Name: "down", X: []float64{0, 1}, Y: []float64{1, 0}, Glyph: '+'}
	if err := Line(&buf, []Series{a, b}, 6); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("series glyphs missing")
	}
}

// TestLineDegenerateRanges: an axis with one value is widened around it,
// so a flat series is drawn along the middle row and a single point in
// the middle of the chart, under the value's own row label.
func TestLineDegenerateRanges(t *testing.T) {
	for _, c := range []struct {
		name string
		s    Series
		row  string // the middle of five rows
	}{
		{"flat", Series{X: []float64{0, 1, 2}, Y: []float64{5, 5, 5}},
			"         5 |*" + strings.Repeat(" ", 30) + "*" + strings.Repeat(" ", 31) + "*|"},
		{"single point", Series{X: []float64{3}, Y: []float64{4}},
			"         4 |" + strings.Repeat(" ", 31) + "*" + strings.Repeat(" ", 32) + "|"},
	} {
		var buf bytes.Buffer
		if err := Line(&buf, []Series{c.s}, 5); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rows := strings.Split(buf.String(), "\n")[:5]
		for r, row := range rows {
			if r == 2 && row != c.row || r != 2 && strings.Contains(row, "*") {
				t.Fatalf("%s: row %d is %q:\n%s", c.name, r, row, buf.String())
			}
		}
	}
}

func TestLineErrors(t *testing.T) {
	var buf bytes.Buffer
	ok := Series{Name: "s", X: []float64{0, 1}, Y: []float64{0, 1}}
	if err := Line(&buf, []Series{ok}, 3); !errors.Is(err, ErrBadPlot) {
		t.Fatal("tiny chart accepted")
	}
	if err := Line(&buf, nil, 10); !errors.Is(err, ErrBadPlot) {
		t.Fatal("no series accepted")
	}
	ragged := Series{Name: "r", X: []float64{0, 1}, Y: []float64{0}}
	if err := Line(&buf, []Series{ragged}, 10); !errors.Is(err, ErrBadPlot) {
		t.Fatal("ragged series accepted")
	}
	nan := Series{Name: "n", X: []float64{math.NaN()}, Y: []float64{math.NaN()}}
	if err := Line(&buf, []Series{nan}, 10); !errors.Is(err, ErrBadPlot) {
		t.Fatal("all-NaN series accepted")
	}
}

func TestBars(t *testing.T) {
	var buf bytes.Buffer
	labels := []string{"0.1", "0.2", "1.0"}
	groups := []BarGroup{
		{Name: "Q(p)", Values: []float64{0.62, 0.15, 0.05}, Glyph: '#'},
		{Name: "PR(p,t3)", Values: []float64{0.46, 0.12, 0.10}, Glyph: '='},
	}
	if err := Bars(&buf, labels, groups); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"0.1", "1.0", "Q(p)", "PR(p,t3)", "#", "="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// The largest value gets the longest bar.
	if !strings.Contains(out, strings.Repeat("#", barsWidth)) {
		t.Fatalf("max bar not full width:\n%s", out)
	}
}

func TestBarsErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Bars(&buf, nil, nil); !errors.Is(err, ErrBadPlot) {
		t.Fatal("empty chart accepted")
	}
	if err := Bars(&buf, []string{"a", "b"}, []BarGroup{{Name: "g", Values: []float64{1}}}); !errors.Is(err, ErrBadPlot) {
		t.Fatal("ragged group accepted")
	}
	if err := Bars(&buf, []string{"a"}, []BarGroup{{Name: "g", Values: []float64{-1}}}); !errors.Is(err, ErrBadPlot) {
		t.Fatal("negative value accepted")
	}
	if err := Bars(&buf, []string{"a"}, []BarGroup{{Name: "g", Values: []float64{0}}}); err != nil {
		t.Fatalf("all-zero chart rejected: %v", err)
	}
}
