// Package graph implements the Web-graph substrate for the page-quality
// estimator: a mutable directed graph with per-page metadata, a frozen
// compressed-sparse-row (CSR) snapshot for iterative computations,
// synthetic Web generators, structural analysis (degree distributions,
// strongly connected components, bow-tie decomposition) and a binary
// serialisation format.
//
// Node identifiers are dense uint32 values assigned in insertion order, so
// popularity vectors can be plain []float64 slices indexed by NodeID.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a page within one Graph. IDs are dense and start at 0.
type NodeID uint32

// InvalidNode is returned by lookups that find no node.
const InvalidNode = NodeID(^uint32(0))

// Page carries the metadata the corpus simulator and the quality estimator
// attach to each node.
type Page struct {
	// URL is the unique address of the page (used as the stable key when
	// intersecting snapshots taken at different times).
	URL string
	// Site is the index of the Web site the page belongs to (-1 if unknown).
	Site int32
	// Created is the simulation time step at which the page was born.
	Created float64
	// Quality is the ground-truth intrinsic quality Q(p) in [0,1] when the
	// page was produced by the corpus simulator, or NaN when unknown.
	Quality float64
}

// Graph is a mutable directed Web graph. It is a builder: freeze it into a
// CSR with Freeze before running PageRank-style computations.
//
// Graph is not safe for concurrent mutation (but see AddInLink).
type Graph struct {
	pages []Page
	out   [][]NodeID
	in    [][]NodeID
	byURL map[string]NodeID
	edges int
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		pages: make([]Page, 0, n),
		out:   make([][]NodeID, 0, n),
		in:    make([][]NodeID, 0, n),
		byURL: make(map[string]NodeID, n),
	}
}

// ErrDuplicateURL is returned by AddPage when the URL already exists.
var ErrDuplicateURL = errors.New("graph: duplicate URL")

// MaxURLLen is the longest page URL, in bytes, the binary format reads
// back; AddPage refuses a longer one, so every graph can be written and
// read again.
const MaxURLLen = 1 << 16

// AddPage adds a page and returns its new NodeID. The URL must be unique
// within the graph and at most MaxURLLen bytes; pass an empty URL to skip
// URL indexing entirely (useful for purely synthetic graphs).
func (g *Graph) AddPage(p Page) (NodeID, error) {
	if len(p.URL) > MaxURLLen {
		return InvalidNode, fmt.Errorf("graph: URL of %d bytes exceeds %d", len(p.URL), MaxURLLen)
	}
	if p.URL != "" {
		if _, ok := g.byURL[p.URL]; ok {
			return InvalidNode, fmt.Errorf("%w: %q", ErrDuplicateURL, p.URL)
		}
	}
	id := NodeID(len(g.pages))
	g.pages = append(g.pages, p)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	if p.URL != "" {
		g.byURL[p.URL] = id
	}
	return id, nil
}

// MustAddPage is AddPage for construction code where a duplicate URL is a
// programmer error.
func (g *Graph) MustAddPage(p Page) NodeID {
	id, err := g.AddPage(p)
	if err != nil {
		panic(err)
	}
	return id
}

// AddNodes appends n anonymous pages (no URL, unknown site); the first
// one's id is the NumNodes before the call. It is the fast path for
// synthetic generators.
func (g *Graph) AddNodes(n int) {
	for i := 0; i < n; i++ {
		g.pages = append(g.pages, Page{Site: -1})
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
}

// NumNodes returns the number of pages.
func (g *Graph) NumNodes() int { return len(g.pages) }

// NumEdges returns the number of directed links.
func (g *Graph) NumEdges() int { return g.edges }

// Page returns the metadata for node id.
func (g *Graph) Page(id NodeID) Page { return g.pages[id] }

// SetPage replaces the metadata for node id. Changing the URL of an indexed
// page re-keys the URL index.
func (g *Graph) SetPage(id NodeID, p Page) {
	old := g.pages[id]
	if old.URL != p.URL {
		if old.URL != "" {
			delete(g.byURL, old.URL)
		}
		if p.URL != "" {
			g.byURL[p.URL] = id
		}
	}
	g.pages[id] = p
}

// Lookup returns the node with the given URL.
func (g *Graph) Lookup(url string) (NodeID, bool) {
	id, ok := g.byURL[url]
	return id, ok
}

// HasLink reports whether the directed link from → to exists.
func (g *Graph) HasLink(from, to NodeID) bool {
	for _, t := range g.out[from] {
		if t == to {
			return true
		}
	}
	return false
}

// AddLink inserts the directed link from → to. Duplicate links and
// self-links are rejected (the paper's model counts at most one link per
// author per page, and self-links carry no popularity information).
// It reports whether the link was inserted.
func (g *Graph) AddLink(from, to NodeID) bool {
	if from == to || g.HasLink(from, to) {
		return false
	}
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
	g.edges++
	return true
}

// RemoveLink deletes the directed link from → to if present. Used by the
// forgetting extension where stale links decay.
func (g *Graph) RemoveLink(from, to NodeID) {
	if removeFrom(&g.out[from], to) {
		removeFrom(&g.in[to], from)
		g.edges--
	}
}

// AddInLink, RemoveInLinkAt and CommitOut split AddLink and RemoveLink:
// the in-halves edit only to's in-list, CommitOut later the out-list and
// edge count; committed in batch order, every list ends as AddLink and
// RemoveLink in that order leave it. In between, only out-lists and the
// edited in-lists may be read, and only distinct in-lists edited at once.
// In-lists mirror out-lists at batch start, so in[to] read before its
// first edit holds exactly the from with HasLink(from, to) until commit.
// AddInLink is AddLink's in-half, for a link known to be new.
func (g *Graph) AddInLink(from, to NodeID) { g.in[to] = append(g.in[to], from) }

// RemoveInLinkAt is RemoveLink(InLinks(to)[i], to)'s in-half; it returns
// the source. Links are unique, so the swap-remove at i is removeFrom's.
func (g *Graph) RemoveInLinkAt(to NodeID, i int) NodeID {
	in := g.in[to]
	from := in[i]
	in[i], g.in[to] = in[len(in)-1], in[:len(in)-1]
	return from
}

// CommitOut applies the out-half of an edit of from → to.
func (g *Graph) CommitOut(from, to NodeID, add bool) {
	if add {
		g.out[from] = append(g.out[from], to)
		g.edges++
		return
	}
	removeFrom(&g.out[from], to)
	g.edges--
}

func removeFrom(s *[]NodeID, v NodeID) bool {
	for i, x := range *s {
		if x == v {
			(*s)[i] = (*s)[len(*s)-1]
			*s = (*s)[:len(*s)-1]
			return true
		}
	}
	return false
}

// OutLinks returns the targets of node id. The returned slice is owned by
// the graph and must not be mutated.
func (g *Graph) OutLinks(id NodeID) []NodeID { return g.out[id] }

// InLinks returns the sources pointing at node id. The returned slice is
// owned by the graph and must not be mutated.
func (g *Graph) InLinks(id NodeID) []NodeID { return g.in[id] }

// OutDegree returns len(OutLinks(id)).
func (g *Graph) OutDegree(id NodeID) int { return len(g.out[id]) }

// InDegree returns len(InLinks(id)).
func (g *Graph) InDegree(id NodeID) int { return len(g.in[id]) }

// Clone returns a deep copy of the graph. All adjacency lists share one
// packed backing array sized from the live edge count (two entries per
// edge), so a snapshot costs two large allocations instead of one per
// non-empty list. Each list's capacity is capped at its length, so a later
// append on the clone reallocates that list rather than clobbering its
// neighbour's region of the backing array.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		pages: append([]Page(nil), g.pages...),
		out:   make([][]NodeID, len(g.out)),
		in:    make([][]NodeID, len(g.in)),
		byURL: make(map[string]NodeID, len(g.byURL)),
		edges: g.edges,
	}
	backing := make([]NodeID, 0, 2*g.edges)
	for i := range g.out {
		if n := len(g.out[i]); n > 0 {
			lo := len(backing)
			backing = append(backing, g.out[i]...)
			c.out[i] = backing[lo : lo+n : lo+n]
		}
		if n := len(g.in[i]); n > 0 {
			lo := len(backing)
			backing = append(backing, g.in[i]...)
			c.in[i] = backing[lo : lo+n : lo+n]
		}
	}
	for k, v := range g.byURL {
		c.byURL[k] = v
	}
	return c
}

// fillIn sets the in-lists, which must be empty, and the edge count of a
// graph whose out-rows are the rows of to at off (see transpose): each
// list a window of transpose's sources with its capacity capped at its
// length, as Clone's are.
func (g *Graph) fillIn(off []uint32, to []NodeID) {
	inOff, from := transpose(off, to)
	for t := range g.in {
		if lo, hi := inOff[t], inOff[t+1]; hi > lo {
			g.in[t] = from[lo:hi:hi]
		}
	}
	g.edges = len(to)
}

// transpose returns the in-lists of the rows to[off[i]:off[i+1]], which
// must hold no duplicate or self link, laid out as they are: node t's
// sources are from[inOff[t]:inOff[t+1]], in (from, row) order, the order
// AddLink appends them in when the rows are added one after the other.
func transpose(off []uint32, to []NodeID) (inOff []uint32, from []NodeID) {
	n := len(off) - 1
	inOff = make([]uint32, n+1)
	for _, t := range to {
		inOff[t+1]++
	}
	for t := 0; t < n; t++ {
		inOff[t+1] += inOff[t]
	}
	from = make([]NodeID, len(to))
	next := append([]uint32(nil), inOff[:n]...) // each list's fill cursor
	for f := 0; f < n; f++ {
		for _, t := range to[off[f]:off[f+1]] {
			from[next[t]] = NodeID(f)
			next[t]++
		}
	}
	return inOff, from
}

func sortNodeIDs(s []NodeID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// Validate checks internal consistency: in/out adjacency mirror each other,
// no self-links, no duplicates, edge count matches. Only tests call it;
// DecodeBinary rejects a corrupt file while it parses.
func (g *Graph) Validate() error {
	n := NodeID(len(g.pages))
	count := 0
	for from := NodeID(0); from < n; from++ {
		seen := make(map[NodeID]bool, len(g.out[from]))
		for _, to := range g.out[from] {
			if to >= n {
				return fmt.Errorf("graph: edge %d->%d target out of range", from, to)
			}
			if to == from {
				return fmt.Errorf("graph: self-link at %d", from)
			}
			if seen[to] {
				return fmt.Errorf("graph: duplicate edge %d->%d", from, to)
			}
			seen[to] = true
			if !slices.Contains(g.in[to], from) {
				return fmt.Errorf("graph: edge %d->%d missing from in-list", from, to)
			}
			count++
		}
	}
	inCount := 0
	for to := NodeID(0); to < n; to++ {
		for _, from := range g.in[to] {
			if from >= n {
				return fmt.Errorf("graph: in-edge %d<-%d source out of range", to, from)
			}
			if !slices.Contains(g.out[from], to) {
				return fmt.Errorf("graph: in-edge %d<-%d missing from out-list", to, from)
			}
			inCount++
		}
	}
	if count != g.edges || inCount != g.edges {
		return fmt.Errorf("graph: edge count mismatch: out=%d in=%d cached=%d", count, inCount, g.edges)
	}
	return nil
}
