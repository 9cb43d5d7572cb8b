package crawler

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"pagequality/internal/graph"
	"pagequality/internal/webserver"
)

// robotsBasic, robotsGroups, lenientRobots and robotsTable are the bodies
// of the TestParseRobots* tests; they seed FuzzParseRobots.
const robotsBasic = `
# comment
User-agent: *
Disallow: /private/
Disallow: /tmp

User-agent: googlebot
Disallow: /only-for-google
`

func TestParseRobots(t *testing.T) {
	r := parseRobots(robotsBasic)
	if len(r.disallow) != 2 {
		t.Fatalf("disallow = %v", r.disallow)
	}
	if r.allowed("/private/x") || r.allowed("/tmp") {
		t.Fatal("disallowed path allowed")
	}
	if !r.allowed("/public") || !r.allowed("/only-for-google") {
		t.Fatal("allowed path blocked")
	}
}

const robotsGroups = `
User-agent: googlebot
User-agent: *
Disallow: /both

User-agent: bingbot
Disallow: /bing-only
`

func TestParseRobotsGroupSemantics(t *testing.T) {
	// Our rules come only from groups containing *; consecutive agent
	// lines share one group.
	r := parseRobots(robotsGroups)
	if len(r.disallow) != 1 || r.disallow[0] != "/both" {
		t.Fatalf("disallow = %v", r.disallow)
	}
}

var lenientRobots = []string{
	"", "garbage without colon", "Disallow: /orphan",
	"User-agent: *\nDisallow:", // empty disallow = allow all
	"Crawl-delay: 5\nUser-agent: *\nDisallow: /x",
}

func TestParseRobotsLenient(t *testing.T) {
	for _, body := range lenientRobots {
		r := parseRobots(body)
		if r == nil {
			t.Fatalf("nil rules for %q", body)
		}
		if !r.allowed("/anything-else") {
			t.Fatalf("lenient parse blocked /anything-else for %q", body)
		}
	}
}

// robotsTable holds the syntax corners a lenient crawler must survive:
// multi-agent groups, comments, CRLF line endings, Allow lines (ignored),
// empty Disallow, case and whitespace.
var robotsTable = []struct {
	name     string
	body     string
	disallow []string // expected prefixes, in order
}{
	{
		name:     "basic star group",
		body:     "User-agent: *\nDisallow: /private/\nDisallow: /tmp\n",
		disallow: []string{"/private/", "/tmp"},
	},
	{
		name:     "crlf line endings",
		body:     "User-agent: *\r\nDisallow: /a\r\nDisallow: /b\r\n",
		disallow: []string{"/a", "/b"},
	},
	{
		name:     "bare cr line endings",
		body:     "User-agent: *\rDisallow: /a\rDisallow: /b\r",
		disallow: []string{"/a", "/b"},
	},
	{
		name:     "multi-agent group shares rules",
		body:     "User-agent: googlebot\nUser-agent: *\nUser-agent: bingbot\nDisallow: /shared\n",
		disallow: []string{"/shared"},
	},
	{
		name:     "multiple star groups accumulate",
		body:     "User-agent: *\nDisallow: /one\n\nUser-agent: *\nDisallow: /two\n",
		disallow: []string{"/one", "/two"},
	},
	{
		name:     "foreign group ignored",
		body:     "User-agent: googlebot\nDisallow: /google-only\n\nUser-agent: *\nDisallow: /ours\n",
		disallow: []string{"/ours"},
	},
	{
		name:     "comments stripped mid-line and whole-line",
		body:     "# preamble\nUser-agent: * # us\nDisallow: /x # why\n# Disallow: /commented-out\n",
		disallow: []string{"/x"},
	},
	{
		name:     "allow lines ignored leniently",
		body:     "User-agent: *\nAllow: /public\nDisallow: /x\nAllow: /also\n",
		disallow: []string{"/x"},
	},
	{
		name:     "empty disallow allows all",
		body:     "User-agent: *\nDisallow:\n",
		disallow: nil,
	},
	{
		name:     "case-insensitive keys, padded values",
		body:     "USER-AGENT:   *  \nDISALLOW:   /caps  \n",
		disallow: []string{"/caps"},
	},
	{
		name:     "directive after unknown key still applies",
		body:     "User-agent: *\nCrawl-delay: 5\nDisallow: /after-unknown\n",
		disallow: []string{"/after-unknown"},
	},
	{
		name:     "malformed lines skipped",
		body:     "User-agent: *\nthis line has no colon\nDisallow: /kept\n",
		disallow: []string{"/kept"},
	},
	{
		name:     "agent run reset by directive",
		body:     "User-agent: *\nDisallow: /a\nUser-agent: googlebot\nDisallow: /google\n",
		disallow: []string{"/a"},
	},
}

// TestParseRobotsTable drives the parser through robotsTable.
func TestParseRobotsTable(t *testing.T) {
	for _, c := range robotsTable {
		t.Run(c.name, func(t *testing.T) {
			r := parseRobots(c.body)
			if len(r.disallow) != len(c.disallow) {
				t.Fatalf("disallow = %v, want %v", r.disallow, c.disallow)
			}
			for i := range c.disallow {
				if r.disallow[i] != c.disallow[i] {
					t.Fatalf("disallow = %v, want %v", r.disallow, c.disallow)
				}
			}
		})
	}
}

// FuzzParseRobots: arbitrary bytes never panic parseRobots, which
// allocates at most a constant times the body. Every disallow value is a
// non-empty, trimmed substring of the body with no '#' and no line break,
// and allowed agrees with a plain prefix loop over the parsed list.
func FuzzParseRobots(f *testing.F) {
	for _, body := range append([]string{robotsBasic, robotsGroups}, lenientRobots...) {
		f.Add(body)
	}
	for _, c := range robotsTable {
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := parseRobots(body)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10+32*uint64(len(body)) {
			t.Fatalf("a %d-byte body allocated %d bytes", len(body), alloc)
		}
		paths := []string{"", "/", body}
		for _, d := range r.disallow {
			if d == "" || d != strings.TrimSpace(d) || strings.ContainsAny(d, "#\r\n") || !strings.Contains(body, d) {
				t.Fatalf("body %q: disallow %q", body, d)
			}
			paths = append(paths, d, d[:len(d)-1], d+"/x")
		}
		for _, p := range paths {
			want := true
			for _, d := range r.disallow {
				if len(p) >= len(d) && p[:len(d)] == d {
					want = false
				}
			}
			if got := r.allowed(p); got != want {
				t.Fatalf("body %q: allowed(%q) = %v, prefix loop over %q says %v", body, p, got, r.disallow, want)
			}
		}
	})
}

func TestNilRulesAllowAll(t *testing.T) {
	var r *robotsRules
	if !r.allowed("/x") {
		t.Fatal("nil rules blocked a path")
	}
}

func TestCrawlRespectsRobots(t *testing.T) {
	sim := testCorpus(t, 6)
	g := sim.Graph().Clone()
	srv, err := webserver.New(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Disallow one specific page that the unrestricted crawl reaches.
	var blockedPath string
	full := func() int {
		ts := httptest.NewServer(srv)
		defer ts.Close()
		seeds, err := FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Crawl(Config{Seeds: seeds, Client: ts.Client()})
		if err != nil {
			t.Fatal(err)
		}
		// Pick a non-seed fetched page to block next time.
		for i := 0; i < res.Graph.NumNodes(); i++ {
			u := res.Graph.Page(graph.NodeID(i)).URL
			if id, ok := g.Lookup(u); ok && g.InDegree(id) > 0 {
				blockedPath = webserver.PagePath(id)
			}
		}
		return res.Stats.Fetched
	}()
	if blockedPath == "" {
		t.Skip("no blockable page found")
	}
	srv.SetRobots([]string{blockedPath})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	seeds, err := FetchSeeds(context.Background(), ts.Client(), ts.URL+"/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Crawl(Config{Seeds: seeds, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SkippedRobots == 0 {
		t.Fatal("robots rule never applied")
	}
	if res.Stats.Fetched >= full {
		t.Fatalf("robots did not reduce the crawl: %d vs %d", res.Stats.Fetched, full)
	}
}

// TestRobotsFetchedOncePerHost pins the duplicate-fetch fix: however many
// workers miss the robots cache together, the host's robots.txt is
// requested exactly once.
func TestRobotsFetchedOncePerHost(t *testing.T) {
	var robotsHits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/robots.txt":
			robotsHits.Add(1)
			fmt.Fprint(w, "User-agent: *\nDisallow:\n")
		case "/":
			for i := 0; i < 16; i++ {
				fmt.Fprintf(w, `<a href="/p%d">p</a>`, i)
			}
		default:
			fmt.Fprint(w, "leaf")
		}
	}))
	defer srv.Close()
	res, err := Crawl(Config{Seeds: []string{srv.URL + "/"}, Client: srv.Client(), Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fetched != 17 {
		t.Fatalf("fetched %d, want 17", res.Stats.Fetched)
	}
	if n := robotsHits.Load(); n != 1 {
		t.Fatalf("robots.txt fetched %d times, want 1", n)
	}
}

func TestRobotsFetchFailureAllowsAll(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/robots.txt":
			http.Error(w, "boom", http.StatusInternalServerError)
		case "/":
			fmt.Fprint(w, `<a href="/a">a</a>`)
		case "/a":
			fmt.Fprint(w, "leaf")
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	res, err := Crawl(Config{Seeds: []string{srv.URL + "/"}, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fetched != 2 {
		t.Fatalf("fetched %d, want 2 (robots error must allow all)", res.Stats.Fetched)
	}
}
