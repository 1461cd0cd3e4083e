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
// runs on this repository's substrates: the initial counts come from
// butterfly.CountLayerVertices, the paper's vertex-priority counter
// (its reference [8]), and the peel pops vertices from bucket.Queue,
// the queue the bitruss peelers use. It is included because [5] — the BiT-BS
// baseline — defines and evaluates both decompositions as one system.
package tip

import (
	"repro/internal/bigraph"
	"repro/internal/bucket"
	"repro/internal/butterfly"
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
func Decompose(g *bigraph.Graph, upper bool) *Result {
	return DecomposeOptions(g, upper, Options{})
}

// DecomposeOptions is Decompose with progress hooks.
//
// The initial counts and ⋈G come from butterfly.CountLayerVertices.
// The peel then removes one minimum-count vertex v at a time and, for
// every other peeled-layer vertex w, subtracts the C(c, 2) butterflies
// w shared with v through c common neighbours, the vertex analogue of
// the edge peeling of Algorithm 1. It walks the wedges v → x → w over a
// copy of the unpeeled layer's adjacency that it compacts as it goes,
// as RECEIPT (Lakhotia et al.) does: each walk of adj(x) writes the
// live entries forward and drops v and any vertex peeled earlier, so a
// peeled vertex is read at most once more per neighbour. The peeled
// layer's own lists are only read, and the other layer is never
// peeled, so no other liveness check is needed.
func DecomposeOptions(g *bigraph.Graph, upper bool, opt Options) *Result {
	lo, hi := layer(g, upper)
	size := int(hi - lo)
	pm := newMeter(opt.Progress, int64(size))

	pm.stage(core.StageCounting)
	total, vcnt := butterfly.CountLayerVertices(g, upper)
	pm.add(int64(size))

	res := &Result{Theta: make([]int64, size), TotalButterflies: total}
	pm.reset(int64(size))
	pm.stage(core.StagePeel)
	peel(g, lo, hi, vcnt[lo:hi], res, pm)
	pm.done()
	return res
}

// layer returns the global vertex ids [lo, hi) of the peeled layer.
func layer(g *bigraph.Graph, upper bool) (lo, hi int32) {
	if upper {
		return int32(g.NumLower()), int32(g.NumVertices())
	}
	return 0, int32(g.NumLower())
}

// peel assigns tip numbers in peeling order and returns how many
// entries of the unpeeled layer's adjacency it read.
func peel(g *bigraph.Graph, lo, hi int32, counts []int64, res *Result, pm *meter) (reads int64) {
	// The unpeeled layer's lists, holding peeled-layer-local ids: the
	// lists of x occupy adj[start[x]:end[x]], and end shrinks as dead
	// entries are dropped. x is indexed relative to olo.
	olo, ohi := int32(0), lo
	if lo == 0 {
		olo, ohi = hi, int32(g.NumVertices())
	}
	start := make([]int32, ohi-olo)
	end := make([]int32, ohi-olo)
	adj := make([]int32, 0, g.NumEdges())
	for x := olo; x < ohi; x++ {
		start[x-olo] = int32(len(adj))
		nbrs, _ := g.Neighbors(x)
		for _, w := range nbrs {
			adj = append(adj, w-lo)
		}
		end[x-olo] = int32(len(adj))
	}

	q := bucket.New(counts)
	cnt := make([]int32, hi-lo)
	touched := make([]int32, 0, 64)
	for q.Len() > 0 {
		v, theta := q.PopMin()
		res.Theta[v] = theta
		if theta > res.MaxTheta {
			res.MaxTheta = theta
		}
		touched = touched[:0]
		nbrs, _ := g.Neighbors(lo + v)
		for _, x := range nbrs {
			x -= olo
			b, e := start[x], end[x]
			reads += int64(e - b)
			keep := b
			for _, w := range adj[b:e] {
				if !q.Contains(w) { // v itself, or peeled earlier
					continue
				}
				adj[keep] = w
				keep++
				if cnt[w] == 0 {
					touched = append(touched, w)
				}
				cnt[w]++
			}
			end[x] = keep
		}
		for _, w := range touched {
			c := int64(cnt[w])
			cnt[w] = 0
			if c < 2 {
				continue
			}
			nv := q.Value(w) - c*(c-1)/2
			if nv < theta {
				nv = theta // the usual peeling clamp
			}
			q.Update(w, nv)
		}
		pm.add(1)
	}
	return reads
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
