package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestQuickWorkloads runs every workload at -quick sizes, untraced and
// traced, and holds each result to the output contract: correct, the
// exact metric set of the mode, and end-to-end values that are never 0.
func TestQuickWorkloads(t *testing.T) {
	t.Cleanup(func() { os.RemoveAll(tmpRoot) })
	for _, name := range workloadNames() {
		for _, mode := range []struct {
			trace string
			want  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(name+"/trace"+mode.trace, func(t *testing.T) {
				var out, errw bytes.Buffer
				err := run(context.Background(), []string{"-workload", name, "-quick", "-seed", "3", "-trace", mode.trace}, &out, &errw)
				if err != nil {
					t.Fatalf("%v\n%s", err, errw.String())
				}
				res, err := parseResult(out.Bytes())
				if err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, errw.String())
				}
				if len(res.Metrics) != len(mode.want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(mode.want))
				}
				for _, d := range mode.want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
					if mode.trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.name, m.Value)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables this program
// reports from: a metric added to one and not the other fails here, not
// in the judge.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./cmd/bench" || strings.Join(doc.Paths, " ") != "cmd/bench" {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %+v", w)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			//pqlint:allow floateq both sides are the same decimal literal, parsed
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestTracerSelfTime checks that a span's self time excludes the union of
// its children, not their sum, and that spans past the cap still count.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.beginRoot("root")
	a := tr.begin(nil, "child")
	b := tr.begin(root, "child") // overlaps a entirely
	time.Sleep(20 * time.Millisecond)
	b.end()
	a.end()
	time.Sleep(10 * time.Millisecond)
	root.end()
	r, c := tr.total("root"), tr.total("child")
	if c.Count != 2 || r.Count != 1 {
		t.Fatalf("counts root %d child %d", r.Count, c.Count)
	}
	if r.Self < 10*time.Millisecond || r.Self > r.Total-15*time.Millisecond {
		t.Fatalf("root self %v of total %v with two overlapping 20 ms children", r.Self, r.Total)
	}
	for i := 0; i < maxSpans+10; i++ {
		tr.begin(nil, "many").end()
	}
	if got := tr.total("many").Count; got != maxSpans+10 {
		t.Fatalf("%d spans counted past the cap, want %d", got, maxSpans+10)
	}
	if len(tr.spans) != maxSpans || tr.dropped != 13 {
		t.Fatalf("kept %d spans, dropped %d", len(tr.spans), tr.dropped)
	}
}

// TestSpread pins the quartile method to Python's
// statistics.quantiles(v, n=4), which the judge uses.
func TestSpread(t *testing.T) {
	v := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	// quantiles -> [10.375, 11.75, 13.25]; median 11.75
	if got, want := spread(v), (13.25-10.375)/11.75; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}
