// Command bench is the repository's benchmark: one command that builds
// its inputs from a seed, drives one pipeline stage per workload through
// the layers' public functions and the qualityserve binary, checks the
// outputs and prints every metric by name and unit.
//
//	go run ./cmd/bench -workload simulate|ingest|refresh|search_cold|search_hot
//	                   [-seed N] [-seconds S] [-trace 0|1] [-quick]
//	go run ./cmd/bench -selfcheck
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json with -trace 0, the per-layer ones with -trace 1. See
// README.md for what each workload isolates and why.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tmpRoot is where a run keeps its binary, stores and archives. It is
// relative to the working directory, so a run reads and writes only
// inside its checkout, and .gitignore names it.
const tmpRoot = ".bench_tmp"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		name      = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = fs.Int64("seed", 1, "seed every input is generated from")
		seconds   = fs.Float64("seconds", 16, "how long the timed repetitions run")
		trace     = fs.Int("trace", 0, "1 adds the traced repetitions and layer probes and reports the per-layer metrics")
		quick     = fs.Bool("quick", false, "smoke-test sizes: 20-site corpus, one repetition")
		selfcheck = fs.Bool("selfcheck", false, "run every workload in two interleaved sets and compare their medians")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be > 0, got %g", *seconds)
	}
	if *selfcheck {
		return runSelfcheck(ctx, *seconds, out, errw)
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("-workload must be one of %v, got %q", workloadNames(), *name)
	}

	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	defer os.Remove(tmpRoot) // only succeeds when no trace file is kept there
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{
		ctx:     ctx,
		seed:    *seed,
		tmp:     tmp,
		nproc:   runtime.NumCPU(),
		sizes:   fullSizes,
		seconds: *seconds,
		layer:   map[string]float64{},
		errw:    &lockedWriter{w: errw},
	}
	if e.speed, err = newSpeedometer(); err != nil {
		return err
	}
	if *quick {
		// No time budget: exactly minReps repetitions.
		e.sizes, e.seconds = quickSizes, 0
	}
	res, err := runWorkload(e, *name, mk(), *trace == 1)
	if err != nil {
		return err
	}
	return res.print(out)
}

// env is what one run hands to its workload.
type env struct {
	ctx     context.Context
	seed    int64
	tmp     string // fresh per run, removed on exit
	nproc   int
	sizes   sizes
	seconds float64
	bin     string             // the compiled qualityserve, "" until built
	layer   map[string]float64 // per-layer metrics gathered so far
	opP50Ms float64            // the untraced repetitions' raw op_p50_ms, for the probes
	speed   *speedometer       // the machine's speed, sampled through the run (calib.go)
	errw    io.Writer
}

// lockedWriter serialises the run's log lines with what the qualityserve
// child writes to the same stream from os/exec's copying goroutine.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.errw, format+"\n", args...)
}

// sizes fixes the amount of work in one repetition of each workload.
type sizes struct {
	simSites    int
	simWeeks    int
	simSessions float64
	sites       int // crawled corpus: sites × pages per site
	pagesPer    int
	coldReqs    int
	hotReqs     int
	openLoopS   float64 // seconds per open-loop probe
	minReps     int
}

// fullSizes puts a repetition of the in-process workloads near one second
// and of the search workloads near a third of one on a 2-vCPU box: long
// enough that one scheduler hiccup is a small share of a repetition, short
// enough that -seconds holds a dozen or more and their median repeats
// from run to run. The crawled corpus is sized so that the serving
// fixture's three crawls leave most of a run to the timed repetitions.
var fullSizes = sizes{
	simSites: 154, simWeeks: 6, simSessions: 1500,
	sites: 60, pagesPer: 30,
	coldReqs: 3000, hotReqs: 12000,
	openLoopS: 4, minReps: 3,
}

var quickSizes = sizes{
	simSites: 20, simWeeks: 2, simSessions: 200,
	sites: 20, pagesPer: 8,
	coldReqs: 300, hotReqs: 800,
	openLoopS: 0.3, minReps: 1,
}

// workload is one stage of the pipeline under measurement.
type workload interface {
	// setup builds the inputs; its cost is part of setup_s.
	setup(e *env) error
	// rep runs one repetition of the fixed unit of work. tr is nil on the
	// untraced repetitions every end-to-end metric comes from.
	rep(e *env, tr *tracer) (repResult, error)
	// check verifies outputs after the timed repetitions.
	check(e *env) error
	// probe runs the traced-only layer measurements and fills e.layer.
	probe(e *env, tr *tracer) error
	// close stops processes and releases files.
	close()
}

// repResult is what one repetition measured.
type repResult struct {
	wall      time.Duration
	ops       int           // items of work behind ops_per_s
	attempted int           // client-visible operations
	failed    int           // of which failed
	opTime    time.Duration // one client-visible operation, behind op_p50_ms
}

var workloads = map[string]func() workload{
	"simulate":    func() workload { return &simulate{} },
	"ingest":      func() workload { return &ingest{} },
	"refresh":     func() workload { return &refresh{} },
	"search_cold": func() workload { return &searchLoad{hot: false} },
	"search_hot":  func() workload { return &searchLoad{hot: true} },
}

// workloadNames lists the workloads in name order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is one run's outcome in the shape the benchmark contract
// prescribes.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric by name and unit, then the JSON line.
func (r *result) print(out io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runWorkload is the frame every workload runs in: set-up and one untimed
// warm-up repetition (setup_s), the timed untraced repetitions, the
// output checks, and with trace the traced repetitions and layer probes.
func runWorkload(e *env, name string, w workload, trace bool) (*result, error) {
	defer w.close()
	budget := time.Duration(e.seconds * float64(time.Second))
	if trace {
		// A traced run splits its time between untraced repetitions (the
		// overhead baseline), traced ones and the probes.
		budget /= 3
	}

	if err := e.speed.sample(); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := w.setup(e); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	if _, err := timedRep(e, w, nil); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", name, err)
	}
	// The build of qualityserve is not set-up: its cost depends on the
	// state of the go build cache, not on this repository's code.
	setup := time.Since(start) - time.Duration(e.layer["bench.build_s"]*float64(time.Second))

	reps, err := timedReps(e, w, nil, budget)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res := &result{Metrics: map[string]metricValue{}}
	var rates, opMs, walls []float64
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		rates = append(rates, float64(r.ops)/r.wall.Seconds())
		opMs = append(opMs, ms(r.opTime))
		walls = append(walls, r.wall.Seconds())
	}
	if err := e.speed.sample(); err != nil {
		return nil, err
	}
	speed := e.speed.speed()
	checkErr := w.check(e)
	if checkErr != nil {
		e.logf("%s: output check failed: %v", name, checkErr)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	e.logf("%s: %d timed repetitions of %.3f s (median; all: %.3f), set-up %.2f s", name, len(reps), median(walls), walls, setup.Seconds())
	e.logf("%s: machine speed %.4f of the reference (%d kernel units; by slice: %.3f); as measured: %.6g ops/s, op p50 %.6g ms",
		name, speed, e.speed.units, e.speed.slices, median(rates), median(opMs))

	if !trace {
		// At the reference speed: a machine half as fast takes twice as long.
		values := map[string]float64{"setup_s": setup.Seconds() * speed, "ops_per_s": median(rates) / speed, "op_p50_ms": median(opMs) * speed}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{values[d.name], d.unit}
		}
		return res, nil
	}

	e.opP50Ms = median(opMs)
	tr := newTracer()
	traced, err := timedReps(e, w, tr, budget)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", name, err)
	}
	var tracedWalls []float64
	for _, r := range traced {
		res.Attempted += r.attempted
		res.Failed += r.failed
		tracedWalls = append(tracedWalls, r.wall.Seconds())
	}
	res.Correct = res.Failed == 0
	if err := w.probe(e, tr); err != nil {
		return nil, fmt.Errorf("%s probes: %w", name, err)
	}
	e.layer["bench.trace_overhead_share"] = median(tracedWalls)/median(walls) - 1
	e.layer["bench.machine_speed"] = e.speed.speed()
	e.layer["bench.nproc"] = float64(e.nproc)
	e.layer["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	path := filepath.Join(tmpRoot, "trace-"+name+".json")
	if err := tr.writeFile(path, name, e.seed); err != nil {
		return nil, err
	}
	e.logf("%s: trace written to %s (%d spans kept, %d aggregated, %.1f%% of traced wall in named spans)",
		name, path, len(tr.spans), tr.dropped, 100*tr.attributedShare())
	for _, d := range perLayer {
		// A layer the workload does not drive did no work: its metrics read 0.
		res.Metrics[d.name] = metricValue{e.layer[d.name], d.unit}
	}
	for n := range e.layer {
		if !isPerLayer(n) {
			return nil, fmt.Errorf("metric %q is not in the per-layer table", n)
		}
	}
	return res, nil
}

// timedReps repeats the unit of work until budget is spent, at least
// minReps times, and samples the machine's speed before each repetition.
func timedReps(e *env, w workload, tr *tracer, budget time.Duration) ([]repResult, error) {
	var out []repResult
	start := time.Now()
	for len(out) < e.sizes.minReps || time.Since(start) < budget {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		if err := e.speed.sample(); err != nil {
			return nil, err
		}
		tr.nextRep()
		r, err := timedRep(e, w, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// timedRep collects garbage first, so no repetition pays for the
// allocations of the one before it.
func timedRep(e *env, w workload, tr *tracer) (repResult, error) {
	runtime.GC()
	root := tr.beginRoot("bench.rep")
	r, err := w.rep(e, tr)
	root.end()
	return r, err
}
