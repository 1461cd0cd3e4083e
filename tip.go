package bitruss

import "repro/internal/tip"

// TipResult holds a tip decomposition: the vertex analogue of the
// bitruss decomposition, from the same system that introduced the
// BiT-BS baseline (Sarıyüce & Pinar, WSDM 2018). The tip number θ(v)
// of a vertex is the largest k such that a k-tip — a maximal subgraph
// whose peeled-layer vertices each participate in at least k
// butterflies — contains v.
//
// This is the in-process entry point; the resident serving path is the
// engine's View.Tip / the bitserved /v1/datasets/{name}/tip endpoint,
// which memoises the same computation per snapshot.
type TipResult struct {
	// Theta maps layer-local vertex index -> tip number.
	Theta []int64
	// MaxTheta is the largest tip number.
	MaxTheta int64
	// TotalButterflies is ⋈G.
	TotalButterflies int64
}

// TipDecompose computes the tip number of every vertex of one layer
// (upper selects U(G); the other layer is never peeled).
func TipDecompose(g *Graph, upper bool) *TipResult {
	res := tip.Decompose(g.g, upper)
	return &TipResult{
		Theta:            res.Theta,
		MaxTheta:         res.MaxTheta,
		TotalButterflies: res.TotalButterflies,
	}
}

// SizeBytes is the resident size of the decomposition (the same
// accounting the engine's memory stats report for memoised tip state).
func (r *TipResult) SizeBytes() int64 {
	if r == nil {
		return 0
	}
	return int64(len(r.Theta))*8 + 16
}

// KTip returns the layer-local vertices whose tip number is at least k.
func (r *TipResult) KTip(k int64) []int {
	var out []int
	for v, th := range r.Theta {
		if th >= k {
			out = append(out, v)
		}
	}
	return out
}
