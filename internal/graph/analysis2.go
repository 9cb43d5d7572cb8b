package graph

import (
	"math/rand"
	"slices"
)

// Reciprocity returns the fraction of directed edges whose reverse edge
// also exists — a standard Web-graph statistic (the real Web is weakly
// reciprocal; social graphs strongly so). A graph with no edges reports 0.
func Reciprocity(c *CSR) float64 {
	if c.NumEdges() == 0 {
		return 0
	}
	recip := 0
	for v := 0; v < c.NumNodes(); v++ {
		for _, w := range c.Out(NodeID(v)) {
			if slices.Contains(c.Out(w), NodeID(v)) {
				recip++
			}
		}
	}
	return float64(recip) / float64(c.NumEdges())
}

// ClusteringCoefficient estimates the average local clustering coefficient
// over the undirected projection of the graph: for each sampled node, the
// fraction of its neighbour pairs that are themselves connected. Sampling
// (samples > 0) keeps it tractable on large graphs; samples <= 0 uses
// every node. The rng drives node and pair sampling deterministically.
func ClusteringCoefficient(c *CSR, samples int, rng *rand.Rand) float64 {
	n := c.NumNodes()
	if n == 0 {
		return 0
	}
	nodes := make([]NodeID, 0, n)
	if samples <= 0 || samples >= n {
		for i := 0; i < n; i++ {
			nodes = append(nodes, NodeID(i))
		}
	} else {
		seen := make(map[NodeID]bool, samples)
		for len(nodes) < samples {
			v := NodeID(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				nodes = append(nodes, v)
			}
		}
	}
	// Undirected neighbour sets; the list form is deterministic (insertion
	// order over the adjacency slices) so sampling with a seeded rng is
	// reproducible.
	neighbours := func(v NodeID) (map[NodeID]bool, []NodeID) {
		set := make(map[NodeID]bool)
		var list []NodeID
		add := func(w NodeID) {
			if w != v && !set[w] {
				set[w] = true
				list = append(list, w)
			}
		}
		for _, w := range c.Out(v) {
			add(w)
		}
		for _, w := range c.In(v) {
			add(w)
		}
		return set, list
	}
	sum := 0.0
	counted := 0
	for _, v := range nodes {
		_, list := neighbours(v)
		k := len(list)
		if k < 2 {
			continue
		}
		// For large neighbourhoods sample pairs instead of all k(k-1)/2.
		const maxPairs = 200
		links, pairs := 0, 0
		if k*(k-1)/2 <= maxPairs {
			for i := 0; i < k; i++ {
				ni, _ := neighbours(list[i])
				for j := i + 1; j < k; j++ {
					pairs++
					if ni[list[j]] {
						links++
					}
				}
			}
		} else {
			for pairs < maxPairs {
				i := rng.Intn(k)
				j := rng.Intn(k)
				if i == j {
					continue
				}
				pairs++
				ni, _ := neighbours(list[i])
				if ni[list[j]] {
					links++
				}
			}
		}
		if pairs > 0 {
			sum += float64(links) / float64(pairs)
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}
