// Command websim generates a synthetic multi-site Web corpus, evolves it
// under the paper's user-visitation model, and writes crawl snapshots to a
// store file for the other tools to consume.
//
// Usage:
//
//	websim -out web.pqs [-sites 154] [-users 20000] [-seed 1] \
//	       [-burnin 40] [-birth 30] [-noise 0.01] [-forget 0.01] \
//	       [-schedule 0,4,8,26] \
//	       [-policy none|pagerank|quality|randomized] [-epsilon 0.2] \
//	       [-sessions-per-week 1500] [-topk 10]
//
// The defaults are the headline experiment's corpus
// (experiments.DefaultHeadlineConfig) on the paper's Figure-4 timeline
// (weeks 0, 4, 8, 26, labelled t1..t4). With -sessions-per-week > 0 the corpus evolves
// with the search-discovery channel in the loop: users also find pages
// through a search engine ranked by -policy, closing the feedback loop
// the paper describes (search starts at week 0, after the burn-in).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pagequality/internal/experiments"
	"pagequality/internal/ranking"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "websim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("websim", flag.ContinueOnError)
	// The defaults are the headline experiment's corpus and schedule.
	def := experiments.DefaultHeadlineConfig()
	cfg := def.Corpus
	weeks := make([]string, len(def.Schedule.Times))
	for i, t := range def.Schedule.Times {
		weeks[i] = strconv.FormatFloat(t, 'g', -1, 64)
	}
	var (
		outPath  = fs.String("out", "web.pqs", "output snapshot store path")
		schedule = fs.String("schedule", strings.Join(weeks, ","), "comma-separated crawl weeks")
		policy   = fs.String("policy", "pagerank", "search ranking policy: none|pagerank|quality|randomized")
		epsilon  = fs.Float64("epsilon", 0.2, "randomized fraction of result slots (randomized policy only)")
		sessions = fs.Float64("sessions-per-week", 0, "search query sessions per week (0 = no search channel)")
		topk     = fs.Int("topk", 10, "results each search session visits")
	)
	fs.IntVar(&cfg.Sites, "sites", cfg.Sites, "number of Web sites")
	fs.IntVar(&cfg.InitialPagesPerSite, "pages", cfg.InitialPagesPerSite, "mean initial pages per site")
	fs.IntVar(&cfg.Users, "users", cfg.Users, "simulated user population n")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.Float64Var(&cfg.BurnInWeeks, "burnin", cfg.BurnInWeeks, "burn-in weeks before the first crawl")
	fs.Float64Var(&cfg.BirthRate, "birth", cfg.BirthRate, "new pages per week")
	fs.Float64Var(&cfg.NoiseRate, "noise", cfg.NoiseRate, "link-churn noise rate")
	fs.Float64Var(&cfg.ForgetRate, "forget", cfg.ForgetRate, "per-user forgetting rate per week")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "draw-phase workers (0 = GOMAXPROCS); results are identical at every setting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.VisitRate = float64(cfg.Users)
	if *sessions > 0 {
		pol, err := ranking.Parse(*policy, *epsilon)
		if err != nil {
			return err
		}
		cfg.Search = webcorpus.SearchConfig{
			SessionsPerWeek: *sessions,
			TopK:            *topk,
			Policy:          pol,
		}
	}

	sched, err := parseSchedule(*schedule)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "growing corpus: %d sites, %d users, burn-in %.0f weeks...\n",
		cfg.Sites, cfg.Users, cfg.BurnInWeeks)
	// Wall-clock timing goes to stderr so the deterministic report on
	// stdout stays byte-stable across runs and machines.
	start := time.Now()
	sim, err := webcorpus.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "websim: burn-in took %s\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(out, "corpus ready: %d pages, %d links at t=0\n", sim.NumPages(), sim.NumLinks())

	start = time.Now()
	snaps, err := sim.RunSchedule(sched)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "websim: schedule took %s\n", time.Since(start).Round(time.Millisecond))
	for _, s := range snaps {
		fmt.Fprintf(out, "snapshot %-4s week %5.1f: %d pages, %d links\n",
			s.Label, s.Time, s.Graph.NumNodes(), s.Graph.NumEdges())
	}
	if sess, visits, disc := sim.SearchStats(); sess > 0 {
		fmt.Fprintf(out, "search channel (%s): %d sessions, %d result visits, %d discoveries\n",
			cfg.Search.Policy.Name(), sess, visits, disc)
	}
	if err := snapshot.WriteFile(*outPath, snaps); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d snapshots to %s\n", len(snaps), *outPath)
	return nil
}

// parseSchedule turns "0,4,8,26" into a labelled schedule t1..tN.
func parseSchedule(s string) (webcorpus.Schedule, error) {
	parts := strings.Split(s, ",")
	sched := webcorpus.Schedule{}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return sched, fmt.Errorf("bad schedule entry %q: %w", p, err)
		}
		sched.Times = append(sched.Times, v)
		sched.Labels = append(sched.Labels, fmt.Sprintf("t%d", i+1))
	}
	return sched, sched.Validate()
}
