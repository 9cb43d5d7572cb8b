// Package textplot renders small ASCII line charts and bar charts so the
// experiment binaries can reproduce the paper's figures directly in a
// terminal, with no plotting dependencies.
package textplot

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// ErrBadPlot reports unplottable input.
var ErrBadPlot = errors.New("textplot: bad plot")

// Series is one line on a chart.
type Series struct {
	// Name labels the series in the legend.
	Name string
	// X and Y are the data points (equal length, X ascending recommended).
	X, Y []float64
	// Glyph is the mark used for this series ('*' if zero).
	Glyph rune
}

// lineWidth is a line chart's interior width in characters.
const lineWidth = 64

// Line renders the series into w as an ASCII chart lineWidth characters
// wide and height rows high.
func Line(w io.Writer, series []Series, height int) error {
	if height < 4 {
		return fmt.Errorf("%w: chart height %d too small", ErrBadPlot, height)
	}
	if len(series) == 0 {
		return fmt.Errorf("%w: no series", ErrBadPlot)
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("%w: series %q has %d xs, %d ys", ErrBadPlot, s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			points++
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if points == 0 {
		return fmt.Errorf("%w: no finite points", ErrBadPlot)
	}
	// Widen a degenerate axis by 1 around its value, so the value plots mid-axis.
	//pqlint:allow floateq a degenerate axis is exactly min==max after math.Min/Max folding
	if maxX == minX {
		minX, maxX = minX-0.5, maxX+0.5
	}
	//pqlint:allow floateq a degenerate axis is exactly min==max after math.Min/Max folding
	if maxY == minY {
		minY, maxY = minY-0.5, maxY+0.5
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", lineWidth))
	}
	for _, s := range series {
		glyph := s.Glyph
		if glyph == 0 {
			glyph = '*'
		}
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(lineWidth-1))
			row := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = glyph
		}
	}
	yLabelW := 10
	for r, row := range grid {
		yVal := maxY - (maxY-minY)*float64(r)/float64(height-1)
		if _, err := fmt.Fprintf(w, "%*.3g |%s|\n", yLabelW, yVal, string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s+\n", strings.Repeat(" ", yLabelW), strings.Repeat("-", lineWidth)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s  %-*.4g%*.4g\n", strings.Repeat(" ", yLabelW), lineWidth/2, minX, lineWidth-lineWidth/2, maxX); err != nil {
		return err
	}
	for _, s := range series {
		glyph := s.Glyph
		if glyph == 0 {
			glyph = '*'
		}
		if _, err := fmt.Fprintf(w, "%s  %c %s\n", strings.Repeat(" ", yLabelW), glyph, s.Name); err != nil {
			return err
		}
	}
	return nil
}

// BarGroup is one series in a grouped horizontal bar chart.
type BarGroup struct {
	Name   string
	Values []float64
	Glyph  rune
}

// barsWidth is the length in characters of a bar chart's longest bar.
const barsWidth = 48

// Bars renders grouped horizontal bars (one row per label and group),
// the longest barsWidth characters long — the layout used for the
// Figure-5 histogram.
func Bars(w io.Writer, labels []string, groups []BarGroup) error {
	if len(labels) == 0 || len(groups) == 0 {
		return fmt.Errorf("%w: empty chart", ErrBadPlot)
	}
	maxV := 0.0
	for _, g := range groups {
		if len(g.Values) != len(labels) {
			return fmt.Errorf("%w: group %q has %d values for %d labels", ErrBadPlot, g.Name, len(g.Values), len(labels))
		}
		for _, v := range g.Values {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("%w: negative or NaN bar value", ErrBadPlot)
			}
			maxV = math.Max(maxV, v)
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	labW := 0
	for _, l := range labels {
		if len(l) > labW {
			labW = len(l)
		}
	}
	for i, label := range labels {
		for gi, g := range groups {
			glyph := g.Glyph
			if glyph == 0 {
				glyph = '#'
			}
			n := int(g.Values[i] / maxV * barsWidth)
			lab := label
			if gi > 0 {
				lab = strings.Repeat(" ", len(label))
			}
			if _, err := fmt.Fprintf(w, "%*s |%s %.3f\n", labW, lab,
				strings.Repeat(string(glyph), n), g.Values[i]); err != nil {
				return err
			}
		}
	}
	for _, g := range groups {
		glyph := g.Glyph
		if glyph == 0 {
			glyph = '#'
		}
		if _, err := fmt.Fprintf(w, "%*s  %c %s\n", labW, "", glyph, g.Name); err != nil {
			return err
		}
	}
	return nil
}
