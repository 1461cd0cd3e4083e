package core

import (
	"time"

	"repro/internal/bigraph"
	"repro/internal/bucket"
	"repro/internal/butterfly"
)

// runBS implements BiT-BS (Algorithm 1): the state-of-the-art baseline of
// Sarıyüce & Pinar deployed with the fast counting algorithm. Each edge
// removal enumerates the supporting butterflies with combination-based
// checks — for the removed edge (u, v) it walks every alive wedge
// (u, v, w) and intersects N(w) with N(u) — which is exactly the cost the
// BE-Index eliminates.
func runBS(g *bigraph.Graph, opt Options) (*Result, error) {
	m := g.NumEdges()
	res := &Result{Phi: make([]int64, m)}

	t0 := time.Now()
	total, sup := butterfly.CountAndSupportsWorkers(g, opt.Workers)
	res.Metrics.CountingTime = time.Since(t0)
	res.Metrics.TotalButterflies = total
	res.Metrics.KMax = butterfly.KMax(sup)
	res.MaxSupport = maxOf(sup)
	res.Metrics.Iterations = 1

	orig := append([]int64(nil), sup...)
	res.Sup = orig
	acct := newAccounting(opt.HistogramBounds, orig)

	t1 := time.Now()
	q := bucket.New(sup)
	alive := make([]bool, m)
	for e := range alive {
		alive[e] = true
	}
	// mark[x] holds the edge id (u, x) while processing the removal of
	// (u, v), or -1.
	mark := make([]int32, g.NumVertices())
	for i := range mark {
		mark[i] = -1
	}

	cancel := canceller{ch: opt.Cancel}
	opt.pm.setStage(StagePeel)
	cur := append([]int64(nil), orig...) // live supports
	for q.Len() > 0 {
		if cancel.hit() {
			return nil, ErrCancelled
		}
		e, s := q.PopMin()
		res.Phi[e] = s
		opt.pm.add(1)
		ed := g.Edge(e)
		u, v := ed.U, ed.V

		nbrsU, eidsU := g.Neighbors(u)
		for i, x := range nbrsU {
			if x != v && alive[eidsU[i]] {
				mark[x] = eidsU[i]
			}
		}
		nbrsV, eidsV := g.Neighbors(v)
		for j, w := range nbrsV {
			ewv := eidsV[j]
			if w == u || !alive[ewv] {
				continue
			}
			if cancel.hit() {
				return nil, ErrCancelled
			}
			nbrsW, eidsW := g.Neighbors(w)
			for l, x := range nbrsW {
				ewx := eidsW[l]
				if x == v || !alive[ewx] {
					continue
				}
				eux := mark[x]
				if eux < 0 {
					continue
				}
				// Butterfly [u, v, w, x]: the three other edges each
				// lose the butterfly destroyed by removing e, guarded
				// by "if ⋈e' > ⋈e" (Algorithm 1 lines 6-8).
				for _, f := range [3]int32{eux, ewv, ewx} {
					if cur[f] > s {
						cur[f]--
						q.Update(f, cur[f])
						acct.record(f)
					}
				}
			}
		}
		for i, x := range nbrsU {
			_ = i
			mark[x] = -1
		}
		alive[e] = false
	}
	res.Metrics.PeelTime = time.Since(t1)
	acct.fill(&res.Metrics)
	return res, nil
}
