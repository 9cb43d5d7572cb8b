package experiments

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

// parseCSV is a strict helper: it re-parses what the writers produced.
func parseCSV(t *testing.T, data string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	return rows
}

func TestWriteFigureCSVs(t *testing.T) {
	f1, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFigure1CSV(&buf, f1); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if rows[0][0] != "t" || rows[0][1] != "popularity" {
		t.Fatalf("figure1 header = %v", rows[0])
	}
	if len(rows) != len(f1.Trajectory.T)+1 {
		t.Fatalf("figure1 rows = %d", len(rows))
	}
	// Last row reaches the plateau.
	v, err := strconv.ParseFloat(rows[len(rows)-1][1], 64)
	if err != nil || v < 0.79 {
		t.Fatalf("figure1 last popularity = %v (%v)", rows[len(rows)-1], err)
	}

	f2, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteFigure2CSV(&buf, f2); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, buf.String())
	if len(rows) != len(f2.T)+1 || len(rows[0]) != 3 {
		t.Fatalf("figure2 shape %dx%d", len(rows), len(rows[0]))
	}

	f3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteFigure3CSV(&buf, f3); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, buf.String())
	// Every data row's sum is 0.2.
	for _, r := range rows[1:] {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil || v < 0.199 || v > 0.201 {
			t.Fatalf("figure3 row %v", r)
		}
	}
}

func TestWriteHeadlineAndFigure5CSV(t *testing.T) {
	res, err := testCrawl(t, 1).Headline()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHeadlineCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	found := map[string]string{}
	for _, r := range rows[1:] {
		found[r[0]] = r[1]
	}
	for _, key := range []string{
		"pages_common", "avg_err_quality", "avg_err_pagerank",
		"diff_ci_lo", "tau_quality_vs_truth",
	} {
		if found[key] == "" {
			t.Fatalf("headline CSV missing %q: %v", key, found)
		}
	}

	buf.Reset()
	if err := WriteFigure5CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, buf.String())
	if len(rows) != 11 { // header + 10 bins
		t.Fatalf("figure5 rows = %d", len(rows))
	}
	sumQ := 0.0
	for _, r := range rows[1:] {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		sumQ += v
	}
	if sumQ < 0.999 || sumQ > 1.001 {
		t.Fatalf("figure5 quality fractions sum to %g", sumQ)
	}
}

func TestWriteSweepCSVs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAblationCCSV(&buf, []CPoint{{C: 0.1, AvgErrQ: 0.2, AvgErrPR: 0.3}}); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 2 || rows[1][0] != "0.1" {
		t.Fatalf("ablation-c CSV = %v", rows)
	}
	buf.Reset()
	if err := WriteWindowCSV(&buf, []WindowPoint{{GapWeeks: 4, AvgErrQLow: 0.3, AvgErrQHigh: 0.1}}); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, buf.String())
	if len(rows) != 2 || rows[1][0] != "4" {
		t.Fatalf("window CSV = %v", rows)
	}
}
