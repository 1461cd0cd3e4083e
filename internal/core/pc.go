package core

import (
	"math"
	"time"

	"repro/internal/bigraph"
	"repro/internal/bloom"
	"repro/internal/bucket"
	"repro/internal/butterfly"
)

// runPC implements BiT-PC (Algorithm 7). The algorithm iterates a
// decreasing support threshold ε: each iteration extracts the candidate
// subgraph G≥ε of edges whose full-graph support reaches ε (Lemma 10:
// the ε-bitruss lives inside it), recomputes supports within the
// candidate, drops one round of sub-threshold edges, builds the
// compressed BE-Index of Algorithm 6 — edges assigned in earlier
// iterations keep supporting their blooms but can never be updated again
// — and peels bottom-up as BiT-BU++, assigning bitruss numbers only when
// the peel value reaches ε. The threshold then drops by α = ⌈kmax·τ⌉.
func runPC(g *bigraph.Graph, opt Options) (*Result, error) {
	m := g.NumEdges()
	res := &Result{Phi: make([]int64, m)}

	t0 := time.Now()
	total, origSup := butterfly.CountAndSupportsWorkers(g, opt.Workers)
	res.Metrics.CountingTime = time.Since(t0)
	res.Metrics.TotalButterflies = total
	res.MaxSupport = maxOf(origSup)

	res.Sup = origSup
	kmax := butterfly.KMax(origSup)
	res.Metrics.KMax = kmax
	alpha := int64(math.Ceil(float64(kmax) * opt.Tau))
	if alpha < 1 {
		alpha = 1
	}

	acct := newAccounting(opt.HistogramBounds, origSup)
	assigned := make([]bool, m)
	unassigned := m
	eps := kmax

	cancel := canceller{ch: opt.Cancel}
	keep := make([]bool, m)
	var batch []int32
	for unassigned > 0 {
		select {
		case <-opt.Cancel:
			return nil, ErrCancelled
		default:
		}
		res.Metrics.Iterations++

		// Step 1: extract the candidate subgraph G≥ε by full-graph
		// support. Edges assigned earlier always qualify (their bitruss
		// number, hence their original support, is at least ε).
		tx := time.Now()
		opt.pm.setStage(StageExtract)
		for e := 0; e < m; e++ {
			keep[e] = origSup[e] >= eps
		}
		cand := g.InducedByEdges(keep)

		// Step 2 (Algorithm 7 line 6): recompute supports inside the
		// candidate and drop one round of edges below ε. Assigned edges
		// can never fall below ε here (they sit inside the ε-bitruss).
		subSup := butterfly.EdgeSupports(cand.G)
		keep2 := make([]bool, cand.G.NumEdges())
		for se := range keep2 {
			keep2[se] = subSup[se] >= eps || assigned[cand.ParentEdge[se]]
		}
		inner := cand.G.InducedByEdges(keep2)
		// Compose the edge mappings: inner edge -> original edge.
		parent := make([]int32, inner.G.NumEdges())
		for se := range parent {
			parent[se] = cand.ParentEdge[inner.ParentEdge[se]]
		}
		res.Metrics.ExtractTime += time.Since(tx)

		// Step 3 (Algorithm 6): compressed BE-Index over the candidate.
		ti := time.Now()
		opt.pm.setStage(StageIndex)
		subAssigned := make([]bool, inner.G.NumEdges())
		for se, pe := range parent {
			subAssigned[se] = assigned[pe]
		}
		ix := bloom.BuildCompressed(inner.G, subAssigned, 1)
		res.Metrics.IndexTime += time.Since(ti)
		if sz := ix.SizeBytes(); sz > res.Metrics.PeakIndexBytes {
			res.Metrics.PeakIndexBytes = sz
		}

		// Step 4: peel as BiT-BU++ but assign a bitruss number only
		// when the peel value has reached ε; edges peeled below ε are
		// handled again in a later iteration with a lower threshold.
		tp := time.Now()
		opt.pm.setStage(StagePeel)
		q := newIndexedBucket(ix, subAssigned)
		onUpdate := func(f int32, ns int64) {
			q.Update(f, ns)
			acct.record(parent[f])
		}
		for q.Len() > 0 {
			if cancel.hit() {
				return nil, ErrCancelled
			}
			var mbs int64
			batch, mbs = q.PopMinBucket(batch[:0])
			if mbs >= eps {
				for _, se := range batch {
					pe := parent[se]
					res.Phi[pe] = mbs
					assigned[pe] = true
					unassigned--
				}
				opt.pm.add(int64(len(batch)))
			}
			ix.RemoveBatch(batch, mbs, onUpdate)
		}
		res.Metrics.PeelTime += time.Since(tp)

		if eps == 0 {
			break
		}
		eps -= alpha
		if eps < 0 {
			eps = 0
		}
	}
	acct.fill(&res.Metrics)
	return res, nil
}

// newIndexedBucket builds a bucket queue containing exactly the
// unassigned (indexed) edges of the compressed index, keyed by their
// supports. Assigned edges enter with a sentinel and are removed
// immediately so edge ids keep addressing the same items.
func newIndexedBucket(ix *bloom.Index, assigned []bool) *bucket.Queue {
	sup := ix.Supports()
	vals := make([]int64, len(sup))
	copy(vals, sup)
	for e, a := range assigned {
		if a {
			vals[e] = 0
		}
	}
	q := bucket.New(vals)
	for e, a := range assigned {
		if a {
			q.Remove(int32(e))
		}
	}
	return q
}
