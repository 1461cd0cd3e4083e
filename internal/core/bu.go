package core

import (
	"time"

	"repro/internal/bigraph"
	"repro/internal/bloom"
	"repro/internal/bucket"
	"repro/internal/butterfly"
)

// runBU implements the bottom-up BE-Index algorithms: BiT-BU (Algorithm
// 4) peels single edges with RemoveEdge (Algorithm 2); BiT-BU+ peels the
// whole minimum-support bucket with per-edge bloom traversal and one
// aggregated support write per touched edge (Lemma 9); BiT-BU++
// (Algorithm 5) additionally walks each touched bloom once per bucket,
// and applies Lemma 9 across both of its phases, so it makes exactly
// BiT-BU+'s support writes.
func runBU(g *bigraph.Graph, opt Options) (*Result, error) {
	m := g.NumEdges()
	res := &Result{Phi: make([]int64, m)}

	// The BE-Index construction computes the supports as a by-product,
	// so the counting process of Algorithm 4 line 1 is fused into line 2
	// at the same asymptotic cost. Options.Workers therefore drives the
	// index build rather than a separate counter.
	t0 := time.Now()
	opt.pm.setStage(StageIndex)
	ix := bloom.BuildCompressed(g, nil, opt.Workers)
	res.Metrics.IndexTime = time.Since(t0)
	res.Metrics.PeakIndexBytes = ix.SizeBytes()

	sup := ix.Supports()
	res.Metrics.KMax = butterfly.KMax(sup)
	res.MaxSupport = maxOf(sup)
	res.Metrics.TotalButterflies = sumOf(sup) / 4
	res.Metrics.Iterations = 1

	orig := append([]int64(nil), sup...)
	res.Sup = orig
	acct := newAccounting(opt.HistogramBounds, orig)

	t1 := time.Now()
	q := bucket.New(sup)
	onUpdate := func(f int32, ns int64) {
		q.Update(f, ns)
		acct.record(f)
	}
	cancel := canceller{ch: opt.Cancel}
	opt.pm.setStage(StagePeel)
	switch opt.Algorithm {
	case BiTBU:
		for q.Len() > 0 {
			if cancel.hit() {
				return nil, ErrCancelled
			}
			e, s := q.PopMin()
			res.Phi[e] = s
			ix.RemoveEdge(e, s, onUpdate)
			opt.pm.add(1)
		}
	case BiTBUPlus:
		var batch []int32
		for q.Len() > 0 {
			if cancel.hit() {
				return nil, ErrCancelled
			}
			var mbs int64
			batch, mbs = q.PopMinBucket(batch[:0])
			for _, e := range batch {
				res.Phi[e] = mbs
			}
			ix.RemoveBatchEdgeOnly(batch, mbs, onUpdate)
			opt.pm.add(int64(len(batch)))
		}
	default: // BiTBUPlusPlus
		var batch []int32
		for q.Len() > 0 {
			if cancel.hit() {
				return nil, ErrCancelled
			}
			var mbs int64
			batch, mbs = q.PopMinBucket(batch[:0])
			for _, e := range batch {
				res.Phi[e] = mbs
			}
			ix.RemoveBatch(batch, mbs, onUpdate)
			opt.pm.add(int64(len(batch)))
		}
	}
	res.Metrics.PeelTime = time.Since(t1)
	acct.fill(&res.Metrics)
	return res, nil
}

func sumOf(s []int64) int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}
