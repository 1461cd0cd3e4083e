// Package tip implements tip decomposition, the vertex analogue of
// bitruss decomposition defined in the paper's baseline source [5]
// (Sarıyüce & Pinar, "Peeling bipartite networks for dense subgraph
// discovery", WSDM 2018): a k-tip is a maximal subgraph whose vertices
// of one layer each participate in at least k butterflies, and the tip
// number θ(v) of a vertex is the largest k such that a k-tip contains
// it.
//
// Where bitruss decomposition peels edges by butterfly support, tip
// decomposition peels the vertices of one layer by butterfly count. It
// shares this repository's substrates: per-vertex butterfly counting
// and the bucket queue. It is included because [5] — the BiT-BS
// baseline — defines and evaluates both decompositions as one system.
package tip

import (
	"repro/internal/bigraph"
	"repro/internal/bucket"
	"repro/internal/core"
)

// Result holds the tip numbers of every vertex of the peeled layer.
type Result struct {
	// Theta maps layer-local vertex index -> tip number.
	Theta []int64
	// MaxTheta is the largest tip number.
	MaxTheta int64
	// TotalButterflies is ⋈G.
	TotalButterflies int64
}

// SizeBytes returns the resident size of the result: the theta array
// plus the fixed header. Deterministic for a given graph, so engine
// memory accounting can include tip state.
func (r *Result) SizeBytes() int64 {
	if r == nil {
		return 0
	}
	return int64(len(r.Theta))*8 + 16
}

// Options configures a decomposition run. The zero value runs without
// progress reporting.
type Options struct {
	// Progress, when non-nil, observes the run: StageCounting while
	// initial butterfly counts are built (done counts vertices
	// counted), StagePeel while tip numbers finalize (done counts
	// vertices peeled), StageDone at the end. Same contract as
	// core.ProgressFunc: concurrent-safe, non-blocking.
	Progress core.ProgressFunc
}

// Decompose computes the tip number of every vertex of one layer
// (upper = true peels U(G), vertices of the other layer are never
// peeled, matching [5] where one layer is designated as the primary).
//
// The peeling recomputes butterfly deltas per removed vertex via
// wedge enumeration restricted to alive vertices, the direct analogue
// of the edge peeling of Algorithm 1.
func Decompose(g *bigraph.Graph, upper bool) *Result {
	return DecomposeOptions(g, upper, Options{})
}

// DecomposeOptions is Decompose with progress hooks.
func DecomposeOptions(g *bigraph.Graph, upper bool, opt Options) *Result {
	n := int32(g.NumVertices())
	nl := int32(g.NumLower())
	var lo, hi int32
	if upper {
		lo, hi = nl, n
	} else {
		lo, hi = 0, nl
	}
	size := int(hi - lo)
	pm := newMeter(opt.Progress, int64(size))

	// Initial per-vertex butterfly counts for the peeled layer,
	// restricted counting: butterflies [u, v, w, x] with u, w in the
	// peeled layer contribute to u and w.
	pm.stage(core.StageCounting)
	counts := pairButterflies(g, lo, hi, nil)
	pm.add(int64(size))

	res := &Result{Theta: make([]int64, size)}
	var total int64
	for _, c := range counts {
		total += c
	}
	res.TotalButterflies = total / 2 // each butterfly counted at both peeled endpoints

	alive := make([]bool, n)
	for v := int32(0); v < n; v++ {
		alive[v] = true
	}
	pm.reset(int64(size))
	pm.stage(core.StagePeel)
	peel(g, lo, counts, alive, res, pm)
	pm.done()
	return res
}

// peel removes one minimum-count vertex at a time, assigning tip
// numbers in peeling order.
func peel(g *bigraph.Graph, lo int32, counts []int64, alive []bool, res *Result, pm *meter) {
	n := int32(g.NumVertices())
	q := bucket.New(counts)
	cnt := make([]int32, n)
	touched := make([]int32, 0, 64)
	for q.Len() > 0 {
		item, theta := q.PopMin()
		v := lo + item
		res.Theta[item] = theta
		if theta > res.MaxTheta {
			res.MaxTheta = theta
		}
		// Removing v destroys, for every other peeled-layer vertex w,
		// C(common alive neighbours, 2) butterflies shared with v.
		touched = touched[:0]
		nbrs, _ := g.Neighbors(v)
		for _, x := range nbrs {
			if !alive[x] {
				continue
			}
			nbrs2, _ := g.Neighbors(x)
			for _, w := range nbrs2 {
				if w == v || !alive[w] {
					continue
				}
				if cnt[w] == 0 {
					touched = append(touched, w)
				}
				cnt[w]++
			}
		}
		for _, w := range touched {
			c := int64(cnt[w])
			cnt[w] = 0
			if c < 2 {
				continue
			}
			item2 := w - lo
			if !q.Contains(item2) {
				continue
			}
			delta := c * (c - 1) / 2
			nv := q.Value(item2) - delta
			if nv < theta {
				nv = theta // the usual peeling clamp
			}
			q.Update(item2, nv)
		}
		alive[v] = false
		pm.add(1)
	}
}

// pairButterflies returns, for each vertex of [lo, hi), the number of
// butterflies containing it, considering only vertices marked alive
// (nil alive = all). Butterflies are counted through same-layer pairs:
// a pair (v, w) with c common neighbours holds C(c, 2) butterflies,
// each contributing C(c,2) to both v and w... — precisely, vertex v
// participates in Σ_w C(common(v,w), 2) butterflies.
func pairButterflies(g *bigraph.Graph, lo, hi int32, alive []bool) []int64 {
	n := int32(g.NumVertices())
	counts := make([]int64, hi-lo)
	cnt := make([]int32, n)
	touched := make([]int32, 0, 64)
	for v := lo; v < hi; v++ {
		if alive != nil && !alive[v] {
			continue
		}
		touched = touched[:0]
		nbrs, _ := g.Neighbors(v)
		for _, x := range nbrs {
			if alive != nil && !alive[x] {
				continue
			}
			nbrs2, _ := g.Neighbors(x)
			for _, w := range nbrs2 {
				if w <= v { // count each pair once from the larger id
					continue
				}
				if alive != nil && !alive[w] {
					continue
				}
				if cnt[w] == 0 {
					touched = append(touched, w)
				}
				cnt[w]++
			}
		}
		for _, w := range touched {
			c := int64(cnt[w])
			cnt[w] = 0
			if c < 2 {
				continue
			}
			b := c * (c - 1) / 2
			counts[v-lo] += b
			counts[w-lo] += b
		}
	}
	return counts
}

// KTipVertices returns the layer-local vertices of the k-tip: those
// with tip number at least k.
func (r *Result) KTipVertices(k int64) []int32 {
	var out []int32
	for v, th := range r.Theta {
		if th >= k {
			out = append(out, int32(v))
		}
	}
	return out
}

// meter is the package-local ProgressFunc throttle (core keeps its
// meter unexported): nil-safe and stride-batched.
type meter struct {
	fn    core.ProgressFunc
	st    core.Stage
	cnt   int64
	total int64
}

const meterStride = 4096

func newMeter(fn core.ProgressFunc, total int64) *meter {
	if fn == nil {
		return nil
	}
	return &meter{fn: fn, total: total}
}

func (m *meter) stage(s core.Stage) {
	if m == nil {
		return
	}
	m.st = s
	m.fn(s, m.cnt, m.total)
}

func (m *meter) reset(total int64) {
	if m == nil {
		return
	}
	m.cnt = 0
	m.total = total
}

func (m *meter) add(n int64) {
	if m == nil || n <= 0 {
		return
	}
	m.cnt += n
	if m.cnt/meterStride != (m.cnt-n)/meterStride {
		m.fn(m.st, m.cnt, m.total)
	}
}

func (m *meter) done() {
	if m == nil {
		return
	}
	m.cnt = m.total
	m.st = core.StageDone
	m.fn(core.StageDone, m.cnt, m.total)
}
