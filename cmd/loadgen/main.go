// Command loadgen drives an open-loop query load against a live
// qualityserve and reports the latency distribution, throughput and shed
// rate. The workload is a deterministic zipf stream over a query
// vocabulary — webcorpus topic names by default, or a file of queries —
// replayable from its seed: request i's query is a pure function of
// (seed, i), so two runs at the same rate offer the identical sequence.
//
// Open-loop means arrivals follow the clock, not the server: request i
// departs at start + i/rate whether or not earlier responses have come
// back. That is what exposes saturation — a closed-loop driver would
// slow down with the server and hide it.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8088 -rate 2000 -requests 20000 \
//	        [-topics 20 | -queries file] [-zipf 1.1] [-seed 1] \
//	        [-k 10] [-rank quality] [-timeout 5s] [-json]
//
// With -json the full report is emitted as one JSON object on stdout;
// otherwise a human summary is printed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"pagequality/internal/loadgen"
	"pagequality/internal/webcorpus"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8088", "base URL of the qualityserve instance")
		rate     = fs.Float64("rate", 1000, "offered arrival rate, requests/second")
		requests = fs.Int("requests", 10000, "total arrivals to schedule")
		topics   = fs.Int("topics", webcorpus.NumTopics, "query vocabulary: first N webcorpus topics (ignored with -queries)")
		queries  = fs.String("queries", "", "file with one query per line (overrides -topics)")
		zipfS    = fs.Float64("zipf", 1.1, "zipf exponent of query popularity (0 = uniform)")
		seed     = fs.Int64("seed", 1, "workload seed; same seed replays the same query stream")
		k        = fs.Int("k", 10, "top-k passed to /search")
		rank     = fs.String("rank", "quality", "rank= parameter (quality, pagerank, relevance)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request timeout (0 = none)")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rate <= 0 {
		return fmt.Errorf("-rate must be > 0, got %g", *rate)
	}
	if *requests < 1 {
		return fmt.Errorf("-requests must be >= 1, got %d", *requests)
	}
	if *k < 1 {
		return fmt.Errorf("-k must be >= 1, got %d", *k)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0, got %v", *timeout)
	}
	var vocab []string
	if *queries != "" {
		var err error
		if vocab, err = readQueries(*queries); err != nil {
			return err
		}
	} else {
		if *topics < 1 || *topics > webcorpus.NumTopics {
			return fmt.Errorf("-topics must be in [1, %d], the webcorpus topic count, got %d", webcorpus.NumTopics, *topics)
		}
		for i := 0; i < *topics; i++ {
			vocab = append(vocab, webcorpus.SiteTopic(i))
		}
	}
	wl, err := loadgen.NewWorkload(vocab, *zipfS, *seed)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{
		// Open-loop load fans out far beyond the default two idle
		// connections per host; without this every burst pays connection
		// setup and the client, not the server, becomes the bottleneck.
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
	}}
	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:  strings.TrimRight(*addr, "/"),
		Workload: wl,
		Rate:     *rate,
		Requests: *requests,
		TopK:     *k,
		Rank:     *rank,
		Timeout:  *timeout,
		Client:   client,
		Now:      time.Now,
		Sleep:    time.Sleep,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(out, "offered %d requests at %.0f rps over %v\n", rep.Requests, rep.Rate, rep.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "ok %d  shed %d (%.1f%%)  bad-status %d  net-err %d\n",
		rep.OK, rep.Shed, 100*rep.ShedRate, rep.BadStatus, rep.NetErr)
	fmt.Fprintf(out, "throughput %.0f rps\n", rep.Throughput)
	fmt.Fprintf(out, "latency (admitted): p50 %v  p95 %v  p99 %v  max %v\n",
		rep.P50, rep.P95, rep.P99, rep.Max)
	return nil
}

// readQueries loads one query per line, skipping blanks and # comments.
func readQueries(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no queries in %s", path)
	}
	return out, nil
}
