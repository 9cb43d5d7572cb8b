package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pagequality/internal/loadgen"
	"pagequality/internal/webcorpus"
)

// stubSearch answers every /search with an empty 200 JSON body.
func stubSearch(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write([]byte(`{"hits":[]}`)); err != nil {
			t.Error(err)
		}
	}))
}

func TestRunFlagValidation(t *testing.T) {
	bad := [][]string{
		{"-rate", "0"},
		{"-rate", "-5"},
		{"-requests", "0"},
		{"-k", "0"},
		{"-timeout", "-1s"},
		{"-topics", "0"},
		{"-queries", filepath.Join(t.TempDir(), "missing.txt")},
		{"-zipf", "-1"},
	}
	for _, args := range bad {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Fatalf("args %v: want error", args)
		}
	}
}

// SiteTopic wraps after webcorpus.NumTopics topics, so a larger -topics
// would give one word two zipf ranks: it is refused, and the default
// vocabulary is every topic once.
func TestRunTopicsBound(t *testing.T) {
	var mu sync.Mutex
	var counts map[string]int // query -> requests the server saw
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		counts[r.URL.Query().Get("q")]++
		mu.Unlock()
		if _, err := w.Write([]byte(`{"hits":[]}`)); err != nil {
			t.Error(err)
		}
	}))
	defer ts.Close()
	stream := func(args ...string) (map[string]int, error) {
		mu.Lock()
		counts = map[string]int{}
		mu.Unlock()
		var out bytes.Buffer
		err := run(append([]string{"-addr", ts.URL, "-rate", "5000", "-requests", "200"}, args...), &out)
		mu.Lock()
		defer mu.Unlock()
		return counts, err
	}
	if _, err := stream("-topics", strconv.Itoa(webcorpus.NumTopics+1)); err == nil || !strings.Contains(err.Error(), strconv.Itoa(webcorpus.NumTopics)) {
		t.Fatalf("-topics %d: err = %v, want a refusal naming the topic count", webcorpus.NumTopics+1, err)
	}
	def, err := stream()
	if err != nil {
		t.Fatal(err)
	}
	all, err := stream("-topics", strconv.Itoa(webcorpus.NumTopics))
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(def, all) {
		t.Fatalf("default stream %v differs from -topics %d's %v", def, webcorpus.NumTopics, all)
	}
}

func TestRunJSONOutput(t *testing.T) {
	ts := stubSearch(t)
	defer ts.Close()
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-rate", "5000",
		"-requests", "40",
		"-topics", "3",
		"-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not a JSON report: %v\n%s", err, out.String())
	}
	if rep.Requests != 40 || rep.OK != 40 {
		t.Fatalf("requests=%d ok=%d, want 40/40", rep.Requests, rep.OK)
	}
	if rep.Shed != 0 || rep.ShedRate != 0 {
		t.Fatalf("unexpected shedding against stub: %+v", rep)
	}
}

func TestRunHumanOutput(t *testing.T) {
	ts := stubSearch(t)
	defer ts.Close()
	var out bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-rate", "5000", "-requests", "10", "-topics", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"throughput", "latency (admitted)", "ok 10"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("human output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunQueriesFile(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if q := r.URL.Query().Get("q"); q != "custom query one" && q != "two" {
			t.Errorf("query %q not from the file", q)
		}
		if _, err := w.Write([]byte(`{"hits":[]}`)); err != nil {
			t.Error(err)
		}
	}))
	defer ts.Close()
	path := filepath.Join(t.TempDir(), "queries.txt")
	content := "# comment\n\ncustom query one\ntwo\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-rate", "5000", "-requests", "20", "-queries", path}, &out)
	if err != nil {
		t.Fatal(err)
	}

	// A file of only blanks and comments is rejected.
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("# nothing\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-addr", ts.URL, "-queries", empty}, &out); err == nil {
		t.Fatal("empty query file must be rejected")
	}
}
