package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans caps the spans one traced run keeps in full. Spans past the
// cap still feed the per-name totals every layer metric is derived from;
// only their individual start and end are dropped.
const maxSpans = 5000

// tracer records a span at each call the benchmark makes into a layer.
// A nil *tracer records nothing, so the untraced repetitions run the same
// code without reading the clock.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	rep     int
	root    *liveSpan
	spans   []spanRecord
	dropped int
	totals  map[string]*spanTotal
	counts  map[string]int // counters recorded at the same boundaries
}

// spanRecord is one kept span; times are nanoseconds since the trace
// began, Parent indexes the kept spans (-1: none, or not kept).
type spanRecord struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// spanTotal aggregates every span of one name, kept or not.
type spanTotal struct {
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	// Self is Total minus the part of each span its children covered.
	Self time.Duration `json:"self_ns"`
}

// liveSpan is an open span. covered accumulates the union of its
// children's intervals, so concurrent children (two fetchers under one
// crawl) are not subtracted twice.
type liveSpan struct {
	t          *tracer
	name       string
	id         int // index into t.spans, -1 when past the cap
	start      time.Time
	parent     *liveSpan
	active     int
	coverStart time.Time
	covered    time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), totals: map[string]*spanTotal{}, counts: map[string]int{}}
}

func (t *tracer) nextRep() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep++
	t.mu.Unlock()
}

// beginRoot opens the span every parentless span of the repetition hangs
// under, until it ends.
func (t *tracer) beginRoot(name string) *liveSpan {
	s := t.begin(nil, name)
	if t != nil {
		t.mu.Lock()
		t.root = s
		t.mu.Unlock()
	}
	return s
}

// begin opens a span under parent (nil: the repetition's root).
func (t *tracer) begin(parent *liveSpan, name string) *liveSpan {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == nil {
		parent = t.root
	}
	s := &liveSpan{t: t, name: name, id: -1, start: now, parent: parent}
	if len(t.spans) < maxSpans {
		s.id = len(t.spans)
		pid := -1
		if parent != nil {
			pid = parent.id
		}
		t.spans = append(t.spans, spanRecord{Name: name, Start: now.Sub(t.origin).Nanoseconds(), Parent: pid, Rep: t.rep})
	} else {
		t.dropped++
	}
	if parent != nil {
		if parent.active == 0 {
			parent.coverStart = now
		}
		parent.active++
	}
	return s
}

func (s *liveSpan) end() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	d := now.Sub(s.start)
	if s.id >= 0 {
		t.spans[s.id].End = now.Sub(t.origin).Nanoseconds()
	}
	tot := t.totals[s.name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[s.name] = tot
	}
	tot.Count++
	tot.Total += d
	tot.Self += d - s.covered
	if p := s.parent; p != nil {
		p.active--
		if p.active == 0 {
			p.covered += now.Sub(p.coverStart)
		}
	}
	if t.root == s {
		t.root = nil
	}
	return d
}

// count adds n to a named counter.
func (t *tracer) count(name string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// total returns the aggregate of every span of the name (zero if none).
func (t *tracer) total(name string) spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[name]; tot != nil {
		return *tot
	}
	return spanTotal{}
}

// meanMs is the mean duration of the name's spans in milliseconds.
func (t *tracer) meanMs(name string) float64 {
	tot := t.total(name)
	if tot.Count == 0 {
		return 0
	}
	return ms(tot.Total) / float64(tot.Count)
}

// meanUs is meanMs in microseconds.
func (t *tracer) meanUs(name string) float64 { return 1000 * t.meanMs(name) }

// attributedShare is the share of the traced repetitions' wall that named
// spans under the root covered.
func (t *tracer) attributedShare() float64 {
	root := t.total("bench.rep")
	if root.Total == 0 {
		return 0
	}
	return 1 - float64(root.Self)/float64(root.Total)
}

// writeFile stores the kept spans and the per-name totals as JSON.
func (t *tracer) writeFile(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.totals))
	for n := range t.totals {
		names = append(names, n)
	}
	sort.Strings(names)
	type namedTotal struct {
		Name string `json:"name"`
		spanTotal
	}
	doc := struct {
		Workload   string         `json:"workload"`
		Seed       int64          `json:"seed"`
		Spans      []spanRecord   `json:"spans"`
		Aggregated int            `json:"spans_aggregated_only"`
		Totals     []namedTotal   `json:"totals"`
		Counts     map[string]int `json:"counts"`
	}{Workload: workload, Seed: seed, Spans: t.spans, Aggregated: t.dropped, Counts: t.counts}
	for _, n := range names {
		doc.Totals = append(doc.Totals, namedTotal{n, *t.totals[n]})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
