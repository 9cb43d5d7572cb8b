package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// This file exports experiment results as CSV so the figures can be
// re-plotted with external tooling (gnuplot, matplotlib, R). Each writer
// emits a header row and one row per data point; cmd/experiments wires
// them to the -csv flag.

// writeTable writes the header and the rows as CSV.
func writeTable(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	return cw.WriteAll(rows) // WriteAll flushes
}

// WriteFigure1CSV emits t,P columns of the popularity evolution.
func WriteFigure1CSV(w io.Writer, res *Figure1Result) error {
	rows := make([][]string, len(res.Trajectory.T))
	for i := range rows {
		rows[i] = []string{formatF(res.Trajectory.T[i]), formatF(res.Trajectory.P[i])}
	}
	return writeTable(w, []string{"t", "popularity"}, rows)
}

// WriteFigure2CSV emits t,I,P columns.
func WriteFigure2CSV(w io.Writer, res *Figure2Result) error {
	rows := make([][]string, len(res.T))
	for i := range rows {
		rows[i] = []string{formatF(res.T[i]), formatF(res.I[i]), formatF(res.P[i])}
	}
	return writeTable(w, []string{"t", "I", "P"}, rows)
}

// WriteFigure3CSV emits t,sum columns (the flat Theorem-2 line).
func WriteFigure3CSV(w io.Writer, res *Figure3Result) error {
	rows := make([][]string, len(res.T))
	for i := range rows {
		rows[i] = []string{formatF(res.T[i]), formatF(res.Sum[i])}
	}
	return writeTable(w, []string{"t", "I_plus_P"}, rows)
}

// WriteFigure5CSV emits bin,fracQ,fracPR rows of the error histogram.
func WriteFigure5CSV(w io.Writer, res *HeadlineResult) error {
	fq := res.HistQ.Fractions()
	fp := res.HistPR.Fractions()
	rows := make([][]string, len(fq))
	for i := range rows {
		rows[i] = []string{res.HistQ.Label(i), formatF(fq[i]), formatF(fp[i])}
	}
	return writeTable(w, []string{"bin", "frac_quality", "frac_pagerank"}, rows)
}

// WriteHeadlineCSV emits the §8.2 summary as key,value rows.
func WriteHeadlineCSV(w io.Writer, res *HeadlineResult) error {
	return writeTable(w, []string{"metric", "value"}, [][]string{
		{"pages_crawled", strconv.Itoa(res.PagesCrawled)},
		{"pages_common", strconv.Itoa(res.PagesCommon)},
		{"pages_changed", strconv.Itoa(res.PagesChanged)},
		{"avg_err_quality", formatF(res.AvgErrQ)},
		{"avg_err_pagerank", formatF(res.AvgErrPR)},
		{"median_err_quality", formatF(res.MedianErrQ)},
		{"median_err_pagerank", formatF(res.MedianErrPR)},
		{"diff_ci_lo", formatF(res.DiffCILo)},
		{"diff_ci_hi", formatF(res.DiffCIHi)},
		{"frac_first_bin_quality", formatF(res.FracFirstQ)},
		{"frac_first_bin_pagerank", formatF(res.FracFirstPR)},
		{"frac_last_bin_quality", formatF(res.FracLastQ)},
		{"frac_last_bin_pagerank", formatF(res.FracLastPR)},
		{"tau_quality_vs_truth", formatF(res.TauQTruth)},
		{"tau_pagerank_vs_truth", formatF(res.TauPRTruth)},
	})
}

// WriteAblationCCSV emits the C sweep.
func WriteAblationCCSV(w io.Writer, pts []CPoint) error {
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = []string{formatF(p.C), formatF(p.AvgErrQ), formatF(p.AvgErrPR)}
	}
	return writeTable(w, []string{"C", "avg_err_quality", "avg_err_pagerank"}, rows)
}

// WriteWindowCSV emits the measurement-window sweep.
func WriteWindowCSV(w io.Writer, pts []WindowPoint) error {
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = []string{formatF(p.GapWeeks), formatF(p.AvgErrQLow), formatF(p.AvgErrQHigh)}
	}
	return writeTable(w, []string{"gap_weeks", "avg_err_low_pr", "avg_err_high_pr"}, rows)
}

// WritePolicyComparisonCSV emits one row per ranking policy.
func WritePolicyComparisonCSV(w io.Writer, res *PolicyComparisonResult) error {
	rows := make([][]string, len(res.Outcomes))
	for i, o := range res.Outcomes {
		rows[i] = []string{
			o.Policy, strconv.Itoa(o.Pages), strconv.Itoa(o.Links),
			strconv.FormatInt(o.Sessions, 10), strconv.FormatInt(o.SearchVisits, 10),
			strconv.FormatInt(o.SearchDiscoveries, 10),
			formatF(o.QualityWeightedDiscovery), strconv.Itoa(o.HighQNewborns),
			formatF(o.NewbornDiscovery), strconv.Itoa(o.NewbornsFound),
			formatF(o.MeanTimeToFirstVisit), formatF(o.PopularityGini), formatF(o.QualityPopCorr),
		}
	}
	return writeTable(w, []string{
		"policy", "pages", "links", "sessions", "search_visits", "search_discoveries",
		"quality_weighted_discovery", "highq_newborns", "newborn_discovery",
		"newborns_found", "mean_time_to_first_visit", "popularity_gini", "quality_pop_corr",
	}, rows)
}

func formatF(v float64) string {
	return strconv.FormatFloat(v, 'g', 10, 64)
}
