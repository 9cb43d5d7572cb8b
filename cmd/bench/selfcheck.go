package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSelfcheck measures the benchmark's own noise the way its judge
// does: every workload runs in two interleaved sets of five (A B A B ...),
// one process per run, run i of both sets on seed i. Per workload and
// end-to-end metric it prints both medians, how much worse the second is
// than the first and the bound, and it fails when a gap exceeds its
// bound.
func runSelfcheck(ctx context.Context, seconds float64, out, errw io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	const perSet = 5
	over := 0
	for _, name := range workloadNames() {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*perSet; i++ {
			set, seed := i%2, i/2+1
			cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.Itoa(seed),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Stderr = errw
			// Interrupt, not kill: the run stops its server and empties its
			// temp dir on the way out.
			cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("selfcheck %s seed %d: %w", name, seed, err)
			}
			res, err := parseResult(stdout)
			if err != nil {
				return fmt.Errorf("selfcheck %s seed %d: %w", name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("selfcheck %s seed %d: %d of %d operations failed", name, seed, res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				sets[set][d.name] = append(sets[set][d.name], res.Metrics[d.name].Value)
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			worse := (b - a) / a
			if d.better == higher {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.bound {
				verdict = "OVER"
				over++
			}
			fmt.Fprintf(out, "%-12s %-10s A %12.6g  B %12.6g %-4s  B worse by %+6.2f%%  spread A %5.2f%% B %5.2f%%  bound %4.1f%%  %s\n",
				name, d.name, a, b, d.unit, 100*worse, 100*spread(sets[0][d.name]), 100*spread(sets[1][d.name]), 100*d.bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d gaps over their bound", over)
	}
	return nil
}

// parseResult reads the result object off the last line of a run's
// standard output.
func parseResult(stdout []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	err := json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}

// spread is the distance between the first and third quartile as a share
// of the median, by the inclusive-exclusive method of Python's
// statistics.quantiles(v, n=4).
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (q(0.75) - q(0.25)) / median(s)
}
