package graph

// CSR is a frozen, compressed-sparse-row view of a Graph, optimised for the
// sequential sweeps of iterative algorithms (PageRank, HITS). Both the
// out-adjacency and the transposed in-adjacency are materialised because
// PageRank pulls along in-links while the random-surfer simulation pushes
// along out-links.
//
// A CSR is immutable and safe for concurrent reads.
type CSR struct {
	n int

	outOff []uint32 // len n+1
	outTo  []NodeID // len e

	inOff   []uint32  // len n+1
	inFrom  []NodeID  // len e
	outDegs []uint32  // out-degree per node, len n (avoids pointer chase)
	invOut  []float64 // 1/out-degree per node (0 for danglings), len n
}

// buildInvOut fills invOut from outDegs; one division per node here spares
// iterative kernels one division per edge per iteration.
func (c *CSR) buildInvOut() {
	c.invOut = make([]float64, c.n)
	for i, d := range c.outDegs {
		if d > 0 {
			c.invOut[i] = 1 / float64(d)
		}
	}
}

// Freeze builds a CSR from the current state of g. The graph may continue
// to evolve afterwards; the CSR is an independent copy.
func Freeze(g *Graph) *CSR {
	n := g.NumNodes()
	e := g.NumEdges()
	c := &CSR{
		n:       n,
		outOff:  make([]uint32, n+1),
		outTo:   make([]NodeID, 0, e),
		inOff:   make([]uint32, n+1),
		inFrom:  make([]NodeID, 0, e),
		outDegs: make([]uint32, n),
	}
	for i := 0; i < n; i++ {
		id := NodeID(i)
		c.outOff[i] = uint32(len(c.outTo))
		c.outTo = append(c.outTo, g.OutLinks(id)...)
		c.inOff[i] = uint32(len(c.inFrom))
		c.inFrom = append(c.inFrom, g.InLinks(id)...)
		c.outDegs[i] = uint32(g.OutDegree(id))
	}
	c.outOff[n] = uint32(len(c.outTo))
	c.inOff[n] = uint32(len(c.inFrom))
	c.buildInvOut()
	return c
}

// NumNodes returns the node count.
func (c *CSR) NumNodes() int { return c.n }

// NumEdges returns the edge count.
func (c *CSR) NumEdges() int { return len(c.outTo) }

// Out returns the out-neighbours of id. The slice aliases internal storage
// and must not be mutated.
func (c *CSR) Out(id NodeID) []NodeID {
	return c.outTo[c.outOff[id]:c.outOff[id+1]]
}

// In returns the in-neighbours of id. The slice aliases internal storage
// and must not be mutated.
func (c *CSR) In(id NodeID) []NodeID {
	return c.inFrom[c.inOff[id]:c.inOff[id+1]]
}

// OutDegree returns the out-degree of id.
func (c *CSR) OutDegree(id NodeID) int { return int(c.outDegs[id]) }

// InLists exposes the raw in-adjacency arrays: off has length NumNodes()+1
// and from[off[i]:off[i+1]] are the in-neighbours of node i. The slices
// alias internal storage and must not be mutated. Flat kernels (PageRank)
// iterate these directly instead of calling In per node.
func (c *CSR) InLists() (off []uint32, from []NodeID) {
	return c.inOff, c.inFrom
}

// OutDegrees exposes the raw out-degree array, indexed by NodeID. The
// slice aliases internal storage and must not be mutated.
func (c *CSR) OutDegrees() []uint32 { return c.outDegs }

// InvOutDegrees exposes the precomputed 1/out-degree array, indexed by
// NodeID; dangling nodes hold 0. The slice aliases internal storage and
// must not be mutated.
func (c *CSR) InvOutDegrees() []float64 { return c.invOut }

// InDegree returns the in-degree of id.
func (c *CSR) InDegree(id NodeID) int {
	return int(c.inOff[id+1] - c.inOff[id])
}

// Danglings returns the ids of all nodes with no out-links. PageRank needs
// them to apply its dangling-node policy.
func (c *CSR) Danglings() []NodeID {
	var d []NodeID
	for i := 0; i < c.n; i++ {
		if c.outDegs[i] == 0 {
			d = append(d, NodeID(i))
		}
	}
	return d
}
