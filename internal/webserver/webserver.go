// Package webserver serves a Web-graph snapshot as a browsable HTML site,
// so the crawler substrate can exercise the paper's actual methodology:
// "we download the Web multiple times ... We downloaded pages from each
// site until we could not reach any more pages" (§8.1). Each page renders
// its synthetic text plus one anchor per out-link, and carries a
// rel=canonical link with the page's stable corpus URL so that crawls of
// different server instances (different ports, different snapshot copies)
// can be aligned.
package webserver

import (
	"errors"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pagequality/internal/graph"
)

// ErrBadSnapshot reports an unservable snapshot.
var ErrBadSnapshot = errors.New("webserver: bad snapshot")

// Server is an http.Handler exposing one frozen snapshot.
//
//	GET /            index page linking to each site's root page
//	GET /p/<id>.html one page: canonical link, text, out-link anchors
//	GET /seeds.txt   newline-separated root-page paths (crawler seeds)
type Server struct {
	g     *graph.Graph
	texts []string
	roots []graph.NodeID // first page of each site, ascending site order
	// disallow holds the path prefixes served in robots.txt.
	disallow []string
}

// SetRobots configures the path prefixes the server's /robots.txt
// disallows for all user agents. Call before serving; an empty list (the
// default) serves an allow-all robots file.
func (s *Server) SetRobots(disallowPrefixes []string) {
	s.disallow = append([]string(nil), disallowPrefixes...)
}

// New builds a server over the given graph and per-node texts. The graph
// is not copied; freeze or clone it first if the underlying simulation
// keeps evolving. texts may be nil (pages render links only).
func New(g *graph.Graph, texts []string) (*Server, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadSnapshot)
	}
	if texts != nil && len(texts) != g.NumNodes() {
		return nil, fmt.Errorf("%w: %d texts for %d pages", ErrBadSnapshot, len(texts), g.NumNodes())
	}
	s := &Server{g: g, texts: texts}
	// One root per site: the lowest node id of that site.
	seen := map[int32]bool{}
	for i := 0; i < g.NumNodes(); i++ {
		site := g.Page(graph.NodeID(i)).Site
		if !seen[site] {
			seen[site] = true
			s.roots = append(s.roots, graph.NodeID(i))
		}
	}
	sort.Slice(s.roots, func(a, b int) bool { return s.roots[a] < s.roots[b] })
	return s, nil
}

// PagePath returns the served path of node id.
func PagePath(id graph.NodeID) string {
	return fmt.Sprintf("/p/%d.html", id)
}

// ParsePagePath inverts PagePath.
func ParsePagePath(path string) (graph.NodeID, bool) {
	if !strings.HasPrefix(path, "/p/") || !strings.HasSuffix(path, ".html") {
		return 0, false
	}
	n, err := strconv.ParseUint(path[3:len(path)-5], 10, 32)
	if err != nil {
		return 0, false
	}
	return graph.NodeID(n), true
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/":
		s.serveIndex(w)
	case r.URL.Path == "/seeds.txt":
		s.serveSeeds(w)
	case r.URL.Path == "/robots.txt":
		s.serveRobots(w)
	default:
		id, ok := ParsePagePath(r.URL.Path)
		if !ok || int(id) >= s.g.NumNodes() {
			http.NotFound(w, r)
			return
		}
		s.servePage(w, id)
	}
}

func (s *Server) serveIndex(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!DOCTYPE html><html><head><title>corpus index</title></head><body><h1>Sites</h1><ul>")
	for _, id := range s.roots {
		pg := s.g.Page(id)
		fmt.Fprintf(w, `<li><a href="%s">site %d (%s)</a></li>`,
			PagePath(id), pg.Site, html.EscapeString(pg.URL))
	}
	fmt.Fprint(w, "</ul></body></html>")
}

func (s *Server) serveSeeds(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, id := range s.roots {
		fmt.Fprintln(w, PagePath(id))
	}
}

func (s *Server) serveRobots(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "User-agent: *")
	for _, p := range s.disallow {
		fmt.Fprintf(w, "Disallow: %s\n", p)
	}
}

// pageBufs holds servePage's render buffers. A page is ~9 KB; a buffer
// over 1 MiB is dropped rather than kept for the life of the process.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// servePage renders the page into one buffer and sends it length-framed,
// in a single Write.
func (s *Server) servePage(w http.ResponseWriter, id graph.NodeID) {
	bp := pageBufs.Get().(*[]byte)
	b := s.appendPage((*bp)[:0], id)
	h := w.Header()
	h.Set("Content-Type", "text/html; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
	if cap(b) <= 1<<20 {
		*bp = b
		pageBufs.Put(bp)
	}
}

// appendPage appends page id's HTML: title, canonical link, text and one
// anchor per out-link.
func (s *Server) appendPage(b []byte, id graph.NodeID) []byte {
	pg := s.g.Page(id)
	u := html.EscapeString(pg.URL)
	b = append(b, "<!DOCTYPE html><html><head><title>"...)
	b = append(b, u...)
	b = append(b, "</title>"...)
	if pg.URL != "" {
		b = append(b, `<link rel="canonical" href="`...)
		b = append(b, u...)
		b = append(b, `">`...)
	}
	b = append(b, "</head><body><h1>"...)
	b = append(b, u...)
	b = append(b, "</h1>"...)
	if s.texts != nil {
		b = append(b, "<p>"...)
		b = append(b, html.EscapeString(s.texts[id])...)
		b = append(b, "</p>"...)
	}
	b = append(b, "<ul>"...)
	for _, to := range s.g.OutLinks(id) {
		b = append(b, `<li><a href="/p/`...)
		b = strconv.AppendUint(b, uint64(to), 10)
		b = append(b, `.html">`...)
		b = append(b, html.EscapeString(s.g.Page(to).URL)...)
		b = append(b, "</a></li>"...)
	}
	return append(b, "</ul></body></html>"...)
}
