package pagerank

import "pagequality/internal/graph"

// InDegree returns the raw in-link count per node as a float vector. The
// paper notes (footnote 4) that the link count can substitute for PageRank
// as the popularity measure in the quality estimator; this is that
// baseline.
func InDegree(c *graph.CSR) []float64 {
	v := make([]float64, c.NumNodes())
	for i := range v {
		v[i] = float64(c.InDegree(graph.NodeID(i)))
	}
	return v
}
