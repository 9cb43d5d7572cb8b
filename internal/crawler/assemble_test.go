package crawler

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"pagequality/internal/graph"
	"pagequality/internal/randx"
)

// assembleReference is assemble as it was before the one-pass build: two
// string-keyed lookups per link and AddLink's scan of the source's
// out-list, the lists left in fetch order. It is assemble's oracle.
func assembleReference(pages []page, stats Stats) (*Result, error) {
	pages = slices.DeleteFunc(pages, func(p page) bool { return len(p.canonical) > graph.MaxURLLen })
	canonOf := make(map[string]string, len(pages))
	for _, p := range pages {
		canonOf[p.fetchURL] = p.canonical
	}
	canonSet := make(map[string]bool, len(pages))
	for _, p := range pages {
		canonSet[p.canonical] = true
	}
	canons := make([]string, 0, len(canonSet))
	for c := range canonSet {
		canons = append(canons, c)
	}
	sort.Strings(canons)

	g := graph.New(len(canons))
	ids := make(map[string]graph.NodeID, len(canons))
	for _, c := range canons {
		id, err := g.AddPage(graph.Page{URL: c, Site: -1})
		if err != nil {
			return nil, err
		}
		ids[c] = id
	}
	for _, p := range pages {
		from := ids[p.canonical]
		for _, link := range p.links {
			tc, ok := canonOf[link]
			if !ok {
				continue
			}
			g.AddLink(from, ids[tc])
		}
	}
	return &Result{Graph: g, Stats: stats}, nil
}

// randomPages draws a page set with every case assemble must merge or
// drop: canonicals shared by several fetches, a fetch URL fetched twice,
// self-links, repeated links, links to pages never fetched, and
// canonicals too long for the graph format.
func randomPages(rng *randx.Stream) []page {
	const urls = 40
	fetchURL := func(i int) string { return fmt.Sprintf("http://h.example/p%d", i) }
	long := "http://h.example/" + strings.Repeat("x", graph.MaxURLLen)
	var pages []page
	for i := 0; i < urls; i++ {
		if randx.Intn(rng, 3) == 0 {
			continue // never fetched
		}
		pg := page{fetchURL: fetchURL(i), canonical: fetchURL(i)}
		switch randx.Intn(rng, 8) {
		case 0, 1:
			pg.canonical = fmt.Sprintf("http://h.example/c%d", randx.Intn(rng, 4))
		case 2:
			pg.canonical = long
		case 3:
			pg.fetchURL = fetchURL(randx.Intn(rng, urls))
		}
		for n := randx.Intn(rng, 30); n > 0; n-- {
			if randx.Intn(rng, 5) == 0 {
				pg.links = append(pg.links, pg.fetchURL)
			} else {
				pg.links = append(pg.links, fetchURL(randx.Intn(rng, urls+5)))
			}
		}
		pages = append(pages, pg)
	}
	for i := len(pages) - 1; i > 0; i-- { // fetch order
		j := randx.Intn(rng, i+1)
		pages[i], pages[j] = pages[j], pages[i]
	}
	return pages
}

// TestAssembleMatchesReference: on random page sets, assemble writes the
// reference's bytes, every adjacency list comes out sorted, and the graph
// equals its own AppendBinary/DecodeBinary round trip list for list.
func TestAssembleMatchesReference(t *testing.T) {
	edges := 0
	for trial := uint64(0); trial < 300; trial++ {
		rng := randx.NewStream(3, randx.Key("assemble"), trial)
		pages := randomPages(&rng)
		got, err := assemble(slices.Clone(pages), Stats{Fetched: len(pages)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := assembleReference(slices.Clone(pages), Stats{Fetched: len(pages)})
		if err != nil {
			t.Fatal(err)
		}
		enc := got.Graph.AppendBinary(nil)
		if !bytes.Equal(enc, want.Graph.AppendBinary(nil)) {
			t.Fatalf("trial %d: assemble's bytes differ from the reference's", trial)
		}
		if err := got.Graph.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		back, _, err := graph.DecodeBinary(enc)
		if err != nil {
			t.Fatal(err)
		}
		g := got.Graph
		for id := graph.NodeID(0); int(id) < g.NumNodes(); id++ {
			in, out := g.InLinks(id), g.OutLinks(id)
			if !slices.IsSorted(in) || !slices.IsSorted(out) {
				t.Fatalf("trial %d: node %d has in %v, out %v", trial, id, in, out)
			}
			if !slices.Equal(in, back.InLinks(id)) || !slices.Equal(out, back.OutLinks(id)) {
				t.Fatalf("trial %d: node %d differs from its round trip", trial, id)
			}
		}
		if got.Stats != want.Stats {
			t.Fatalf("trial %d: stats %+v, want %+v", trial, got.Stats, want.Stats)
		}
		edges += g.NumEdges()
	}
	if edges == 0 {
		t.Fatal("no trial produced an edge")
	}
}
