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
// Graph is not safe for concurrent mutation.
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

// AddNodes appends n anonymous pages (no URL, unknown site) and returns the
// id of the first one. It is the fast path for synthetic generators.
func (g *Graph) AddNodes(n int) NodeID {
	first := NodeID(len(g.pages))
	for i := 0; i < n; i++ {
		g.pages = append(g.pages, Page{Site: -1})
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
	return first
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

// RemoveLink deletes the directed link from → to if present, reporting
// whether a link was removed. Used by the forgetting extension where stale
// links decay.
func (g *Graph) RemoveLink(from, to NodeID) bool {
	if !removeFrom(&g.out[from], to) {
		return false
	}
	removeFrom(&g.in[to], from)
	g.edges--
	return true
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

// Subgraph returns a new graph induced by keep (in the iteration order of
// the slice), together with the mapping old→new id. Links with an endpoint
// outside keep are dropped. Used to restrict snapshots to the common pages
// downloaded in every crawl (§8.1 of the paper).
func (g *Graph) Subgraph(keep []NodeID) (*Graph, map[NodeID]NodeID) {
	remap := make(map[NodeID]NodeID, len(keep))
	sub := New(len(keep))
	for _, old := range keep {
		id := sub.MustAddPage(g.pages[old])
		remap[old] = id
	}
	for _, old := range keep {
		from := remap[old]
		for _, t := range g.out[old] {
			if to, ok := remap[t]; ok {
				sub.AddLink(from, to)
			}
		}
	}
	return sub, remap
}

func sortNodeIDs(s []NodeID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// Validate checks internal consistency: in/out adjacency mirror each other,
// no self-links, no duplicates, edge count matches. It is used by tests and
// by the snapshot reader to reject corrupt files.
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
			if !contains(g.in[to], from) {
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
			if !contains(g.out[from], to) {
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

func contains(s []NodeID, v NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
