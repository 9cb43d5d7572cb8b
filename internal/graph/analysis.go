package graph

import (
	"fmt"
	"math"
)

// This file provides the structural analyses used to sanity-check the
// synthetic corpora against the published properties of the real Web:
// power-law degree distributions [3, 4] and the bow-tie macro structure
// [6].

// PowerLawAlpha estimates the exponent of a discrete power-law tail
// P(k) ∝ k^-alpha for degrees >= kmin using the standard maximum-likelihood
// estimator alpha = 1 + n / Σ ln(k_i / (kmin - 0.5)). It returns the
// estimate and the number of samples in the tail.
func PowerLawAlpha(degrees []int, kmin int) (alpha float64, n int) {
	if kmin < 1 {
		kmin = 1
	}
	sum := 0.0
	for _, k := range degrees {
		if k >= kmin {
			sum += math.Log(float64(k) / (float64(kmin) - 0.5))
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0, 0
	}
	return 1 + float64(n)/sum, n
}

// Degrees collects the in- or out-degree of every node.
func Degrees(c *CSR, in bool) []int {
	ds := make([]int, c.NumNodes())
	for i := range ds {
		if in {
			ds[i] = c.InDegree(NodeID(i))
		} else {
			ds[i] = c.OutDegree(NodeID(i))
		}
	}
	return ds
}

// SCC computes the strongly connected components of c using an iterative
// Tarjan algorithm (explicit stack, so million-node graphs do not overflow
// the goroutine stack). It returns comp, where comp[v] is the component
// index of node v, and the number of components. Component indices are in
// reverse topological order of the condensation (Tarjan's property).
func SCC(c *CSR) (comp []int, ncomp int) {
	n := c.NumNodes()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []NodeID // Tarjan stack
	next := int32(0)

	type frame struct {
		v  NodeID
		ei int // next out-edge index to explore
	}
	var call []frame

	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		call = append(call[:0], frame{v: NodeID(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, NodeID(root))
		onStack[root] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			out := c.Out(f.v)
			if f.ei < len(out) {
				w := out[f.ei]
				f.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// finished v
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := &call[len(call)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}

// Region labels a node's place in the bow-tie decomposition of Broder et
// al. [6].
type Region uint8

// Bow-tie regions.
const (
	RegionCore Region = iota // largest strongly connected component
	RegionIn                 // reaches the core, not reached by it
	RegionOut                // reached from the core, does not reach back
	RegionTendril
	RegionDisconnected
)

func (r Region) String() string {
	switch r {
	case RegionCore:
		return "CORE"
	case RegionIn:
		return "IN"
	case RegionOut:
		return "OUT"
	case RegionTendril:
		return "TENDRIL"
	case RegionDisconnected:
		return "DISCONNECTED"
	}
	return fmt.Sprintf("Region(%d)", uint8(r))
}

// BowTieResult is the outcome of a bow-tie decomposition.
type BowTieResult struct {
	Region []Region // per node
	Counts map[Region]int
}

// BowTie decomposes the graph into the bow-tie regions relative to its
// largest strongly connected component.
func BowTie(c *CSR) BowTieResult {
	n := c.NumNodes()
	comp, ncomp := SCC(c)
	size := make([]int, ncomp)
	for _, ci := range comp {
		size[ci]++
	}
	core := 0
	for ci, s := range size {
		if s > size[core] {
			core = ci
		}
	}
	inCore := make([]bool, n)
	var seeds []NodeID
	for v := 0; v < n; v++ {
		if comp[v] == core {
			inCore[v] = true
			seeds = append(seeds, NodeID(v))
		}
	}
	reachFwd := bfs(c, seeds, true, false) // reachable FROM core
	reachBwd := bfs(c, seeds, false, true) // can REACH core
	weak := bfs(c, seeds, true, true)      // in the core's weak component

	res := BowTieResult{
		Region: make([]Region, n),
		Counts: make(map[Region]int),
	}
	for v := 0; v < n; v++ {
		var r Region
		switch {
		case inCore[v]:
			r = RegionCore
		case reachBwd[v]:
			r = RegionIn
		case reachFwd[v]:
			r = RegionOut
		case weak[v]:
			r = RegionTendril
		default:
			r = RegionDisconnected
		}
		res.Region[v] = r
		res.Counts[r]++
	}
	return res
}

// bfs returns the set of nodes reachable from seeds following out-links
// (out), in-links (in) or both (ignoring direction). Seeds themselves are
// marked.
func bfs(c *CSR, seeds []NodeID, out, in bool) []bool {
	seen := make([]bool, c.NumNodes())
	queue := make([]NodeID, 0, len(seeds))
	visit := func(ws []NodeID) {
		for _, w := range ws {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	visit(seeds)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if out {
			visit(c.Out(v))
		}
		if in {
			visit(c.In(v))
		}
	}
	return seen
}
