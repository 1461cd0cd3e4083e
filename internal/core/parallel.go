package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bigraph"
	"repro/internal/bloom"
	"repro/internal/bucket"
	"repro/internal/butterfly"
)

// This file implements the shared-memory parallel BiT-BU++ variant
// (Algorithm selector BiTBUPlusPlusParallel, CLI name "bu++p"): a
// RECEIPT-style two-phase range peeler (Lakhotia, Kannan, Prasanna, De
// Rose — "RECEIPT: refine coarse-grained independent tasks", adapted
// from tip to bitruss decomposition).
//
// Phase 1 (coarse decomposition) splits the bitruss-number domain into
// R coarse ranges [t_{i-1}, t_i) whose bounds are support-weighted
// quantiles of the initial butterfly supports, then determines the range
// of every edge by threshold peeling: for ascending t_i, repeatedly
// delete all edges whose current support is below t_i. The surviving
// subgraph after sweep i is exactly the t_i-bitruss, so an edge deleted
// during sweep i has φ(e) ∈ [t_{i-1}, t_i). Each deletion wave is
// processed by all workers at once over the *read-only* BE-Index: dead
// edges are a bitmap, supports are atomic counters, and every destroyed
// butterfly is charged by its minimum-id dying edge so each surviving
// edge loses exactly one support per butterfly (the per-worker deltas of
// RECEIPT, merged through the atomics).
//
// Phase 2 (fine decomposition) refines each range independently — and
// all ranges concurrently: range i extracts the candidate subgraph of
// edges with φ(e) >= t_{i-1} (BiT-PC's Lemma 10 machinery: the range
// oracle is exact, so the candidate is precisely the t_{i-1}-bitruss),
// freezes the edges of higher ranges in a compressed BE-Index
// (Algorithm 6), and peels bottom-up exactly as serial BiT-BU++
// (Algorithm 5). Every peel value lands in [t_{i-1}, t_i) and equals the
// true φ(e): ranges write disjoint φ entries, so the combined output is
// identical to the serial algorithm, edge for edge.
func runBUParallel(g *bigraph.Graph, opt Options) (*Result, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := g.NumEdges()
	res := &Result{Phi: make([]int64, m)}

	// The BE-Index construction computes the supports as a by-product
	// (as in runBU, the counting process is fused into the build, here
	// run in workers chunks).
	t0 := time.Now()
	opt.pm.setStage(StageIndex)
	ix := bloom.BuildCompressed(g, nil, workers)
	res.Metrics.IndexTime = time.Since(t0)
	fullBytes := ix.SizeBytes()
	res.Metrics.PeakIndexBytes = fullBytes

	// The coarse phase consumes the index supports; keep the originals.
	orig := append([]int64(nil), ix.Supports()...)
	res.Sup = orig
	res.Metrics.KMax = butterfly.KMax(orig)
	res.MaxSupport = maxOf(orig)
	res.Metrics.TotalButterflies = sumOf(orig) / 4

	ranges := opt.Ranges
	if ranges <= 0 {
		ranges = defaultRanges(workers)
	}
	bounds := rangeBounds(orig, ranges)
	res.Metrics.Iterations = len(bounds)

	t1 := time.Now()
	opt.pm.setStage(StageExtract)
	rangeOf, cdAcct, err := coarseDecompose(ix, bounds, workers, opt, orig, nil)
	if err != nil {
		return nil, err
	}
	res.Metrics.ExtractTime = time.Since(t1)
	ix = nil // the full index is dead weight during refinement

	t2 := time.Now()
	opt.pm.setStage(StagePeel)
	fdAcct, fdPeak, err := fineDecompose(g, rangeOf, bounds, orig, opt, workers, res.Phi)
	if err != nil {
		return nil, err
	}
	res.Metrics.PeelTime = time.Since(t2)
	if fdPeak > res.Metrics.PeakIndexBytes {
		res.Metrics.PeakIndexBytes = fdPeak
	}
	cdAcct.mergeFrom(fdAcct)
	cdAcct.fill(&res.Metrics)
	return res, nil
}

// defaultRanges picks the coarse range count for a worker count: enough
// ranges to keep every worker busy through the refinement phase without
// inflating the per-range candidate extraction overhead.
func defaultRanges(workers int) int {
	r := 2 * workers
	if r < 8 {
		r = 8
	}
	if r > 64 {
		r = 64
	}
	return r
}

// rangeBounds returns the ascending exclusive upper bounds t_1 < … < t_R
// of the coarse ranges, with t_R = maxSup+1 so the final sweep drains the
// graph. Bounds are support-weighted quantiles (weight ⋈e + 1) of the
// initial supports, the best cheap proxy for peel work per range.
func rangeBounds(orig []int64, ranges int) []int64 {
	maxSup := maxOf(orig)
	sorted := append([]int64(nil), orig...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total int64
	for _, s := range sorted {
		total += s + 1
	}
	bounds := make([]int64, 0, ranges)
	target := total/int64(ranges) + 1
	var accum int64
	for _, s := range sorted {
		accum += s + 1
		if accum < target {
			continue
		}
		accum = 0
		b := s + 1
		if b <= maxSup && (len(bounds) == 0 || b > bounds[len(bounds)-1]) {
			bounds = append(bounds, b)
		}
	}
	return append(bounds, maxSup+1)
}

// cdWorker is the per-worker state of the coarse phase: support-update
// accounting, the blooms this worker touched first this round, and, per
// range bound, the edges whose support crossed below that bound (the
// next frontiers).
type cdWorker struct {
	acct    *accounting
	touched []int32
	pend    [][]int32
}

// coarseDecompose assigns every edge its coarse range index by threshold
// peeling over the read-only BE-Index. It mutates the index supports (via
// the atomic accessors) and returns rangeOf[e] = i ⇔ φ(e) ∈ [t_{i-1}, t_i).
//
// assigned, when non-nil, marks edges excluded from the peel (ix must
// then be the matching compressed index): assigned edges never enter
// the queue, never die, and keep rangeOf 0 — the caller gives them a
// sentinel range. Incremental maintenance uses this to threshold-peel
// an affected closure with its frozen boundary permanently alive.
func coarseDecompose(ix *bloom.Index, bounds []int64, workers int, opt Options, orig []int64, assigned []bool) ([]int32, *accounting, error) {
	m := len(orig)
	died := make([]int32, m) // round the edge died in, or -1 while alive
	for e := range died {
		died[e] = -1
	}
	rangeOf := make([]int32, m)

	// The bucket queue holds the *original* supports and serves as the
	// sweep seed oracle: PopBelow(t_i) yields the alive edges that start
	// below the threshold; edges dragged below it by earlier deletions
	// are caught by the crossing detection in cdDecrement instead.
	var q *bucket.Queue
	if assigned == nil {
		q = bucket.New(orig)
	} else {
		q = newIndexedBucket(ix, assigned)
	}
	pending := make([][]int32, len(bounds))
	ws := make([]cdWorker, workers)
	for w := range ws {
		ws[w] = cdWorker{
			acct: newAccounting(opt.HistogramBounds, orig),
			pend: make([][]int32, len(bounds)),
		}
	}

	// Per-bloom batch state, mirroring RemoveBatch's C(B*) machinery:
	// bloomLive is the current bloom number (intact wedges), pairCnt the
	// wedges dying in the current round.
	nb := ix.NumBlooms()
	bloomLive := make([]int32, nb)
	for b := range bloomLive {
		bloomLive[b] = ix.BloomNumber(int32(b))
	}
	pairCnt := make([]int32, nb)

	var wg sync.WaitGroup
	frontier := make([]int32, 0, 1024)
	touched := make([]int32, 0, 1024)
	round := int32(0)
	for i := range bounds {
		frontier = q.PopBelow(bounds[i], frontier[:0])
		for _, e := range pending[i] {
			if died[e] < 0 {
				frontier = append(frontier, e)
			}
		}
		pending[i] = nil
		for len(frontier) > 0 {
			if cancelledNow(opt.Cancel) {
				return nil, nil, ErrCancelled
			}
			round++
			for _, e := range frontier {
				died[e] = round
				rangeOf[e] = int32(i)
				q.Remove(e)
			}
			// Round phase 1: detach the frontier's wedges, counting pair
			// removals per bloom and charging each dying wedge's
			// surviving twin its full bloom loss (Algorithm 5 line 12).
			// Tiny waves run inline: a goroutine round-trip per wave
			// would dominate chain-shaped peels.
			if nw := workers; len(frontier) < 4*nw {
				cw := &ws[0]
				for _, e := range frontier {
					cdDetachEdge(ix, e, died, round, bounds, i, bloomLive, pairCnt, cw)
				}
			} else {
				wg.Add(nw)
				for w := 0; w < nw; w++ {
					go func(w int) {
						defer wg.Done()
						cw := &ws[w]
						for j := w; j < len(frontier); j += nw {
							cdDetachEdge(ix, frontier[j], died, round, bounds, i, bloomLive, pairCnt, cw)
						}
					}(w)
				}
				wg.Wait()
			}
			touched = touched[:0]
			for w := range ws {
				touched = append(touched, ws[w].touched...)
				ws[w].touched = ws[w].touched[:0]
			}
			// Round phase 2: traverse every touched bloom once, charging
			// each surviving wedge the C(B*) butterflies it lost
			// (Algorithm 5 lines 14-18). Touched blooms are unique, so
			// bloomLive and pairCnt writes are race-free.
			if nw := workers; len(touched) < 4*nw {
				cw := &ws[0]
				for _, b := range touched {
					cdSweepBloom(ix, b, died, bounds, i, pairCnt[b], cw)
					bloomLive[b] -= pairCnt[b]
					pairCnt[b] = 0
				}
			} else {
				wg.Add(nw)
				for w := 0; w < nw; w++ {
					go func(w int) {
						defer wg.Done()
						cw := &ws[w]
						for j := w; j < len(touched); j += nw {
							b := touched[j]
							cdSweepBloom(ix, b, died, bounds, i, pairCnt[b], cw)
							bloomLive[b] -= pairCnt[b]
							pairCnt[b] = 0
						}
					}(w)
				}
				wg.Wait()
			}
			frontier = frontier[:0]
			for w := range ws {
				cw := &ws[w]
				for bi := i; bi < len(bounds); bi++ {
					if len(cw.pend[bi]) == 0 {
						continue
					}
					if bi == i {
						frontier = append(frontier, cw.pend[bi]...)
					} else {
						pending[bi] = append(pending[bi], cw.pend[bi]...)
					}
					cw.pend[bi] = cw.pend[bi][:0]
				}
			}
		}
	}
	acct := ws[0].acct
	for w := 1; w < len(ws); w++ {
		acct.mergeFrom(ws[w].acct)
	}
	return rangeOf, acct, nil
}

// cdDetachEdge processes one dying edge e: every wedge {e, twin} that is
// still intact dies now. The pair removal is counted once per wedge in
// pairCnt (by e alone when the twin survives, by the smaller edge id
// when both die this round), and a surviving twin loses all live−1
// butterflies it had inside the bloom — every butterfly of the bloom
// pairs the twin's wedge with another wedge intact at round start
// (Lemma 2). On a compressed index the twin may be assigned (incidence
// twin -1): the wedge still dies and is counted by e alone — an
// assigned twin never dies and its support is not tracked, so there is
// nothing to decrement (mirroring RemoveBatch's j < 0 path).
func cdDetachEdge(ix *bloom.Index, e int32, died []int32, round int32, bounds []int64, sweep int, bloomLive, pairCnt []int32, cw *cdWorker) {
	for _, inc := range ix.IncidenceIDsOfEdge(e) {
		b := ix.IncidenceBloom(inc)
		tw := ix.IncidenceTwin(inc)
		if tw < 0 {
			if atomic.AddInt32(&pairCnt[b], 1) == 1 {
				cw.touched = append(cw.touched, b)
			}
			continue
		}
		te := ix.IncidenceEdge(tw)
		dte := died[te]
		if dte >= 0 && dte < round {
			continue // the wedge died with te in an earlier round
		}
		if dte == round && e > te {
			continue // both die now; the smaller id counts the wedge
		}
		if atomic.AddInt32(&pairCnt[b], 1) == 1 {
			cw.touched = append(cw.touched, b)
		}
		if dte != round {
			cdDecrement(ix, te, int64(bloomLive[b]-1), bounds, sweep, cw)
		}
	}
}

// cdSweepBloom charges every wedge of bloom b that survives this round
// the c butterflies it lost — one per wedge of b that died this round.
// Compressed-index wedges whose twin is assigned surface as a single
// incidence with twin -1: the wedge survives iff its indexed member is
// alive (the assigned member never dies), and only that member's
// support is tracked.
func cdSweepBloom(ix *bloom.Index, b int32, died []int32, bounds []int64, sweep int, c int32, cw *cdWorker) {
	for _, k := range ix.IncidenceIDsOfBloom(b) {
		kj := ix.IncidenceTwin(k)
		if kj < 0 {
			if f := ix.IncidenceEdge(k); died[f] < 0 {
				cdDecrement(ix, f, int64(c), bounds, sweep, cw)
			}
			continue
		}
		if k >= kj {
			continue // visit each wedge through its smaller incidence
		}
		f := ix.IncidenceEdge(k)
		f2 := ix.IncidenceEdge(kj)
		if died[f] >= 0 || died[f2] >= 0 {
			continue // wedge dead (this round or earlier)
		}
		cdDecrement(ix, f, int64(c), bounds, sweep, cw)
		cdDecrement(ix, f2, int64(c), bounds, sweep, cw)
	}
}

// cdDecrement atomically charges delta lost butterflies to edge x.
// Concurrent decrements see disjoint (nv, nv+delta] windows, so each
// range bound is crossed by exactly one of them; the crossing decrement
// enrols x in the frontier of the first bound it fell below.
func cdDecrement(ix *bloom.Index, x int32, delta int64, bounds []int64, sweep int, cw *cdWorker) {
	if delta <= 0 {
		return
	}
	nv := ix.AddSupportAtomic(x, -delta)
	cw.acct.record(x)
	// First bound in (nv, nv+delta] at or after the current sweep.
	lo, hi := sweep, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if bounds[mid] <= nv {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(bounds) && bounds[lo] <= nv+delta {
		cw.pend[lo] = append(cw.pend[lo], x)
	}
}

// fineDecompose refines all coarse ranges concurrently. Range i peels
// the candidate subgraph {e : rangeOf[e] >= i} — exactly the
// t_{i-1}-bitruss — with the edges of higher ranges frozen in a
// compressed BE-Index, assigning the exact φ to every range-i edge.
func fineDecompose(g *bigraph.Graph, rangeOf []int32, bounds []int64, orig []int64, opt Options, workers int, phi []int64) (*accounting, int64, error) {
	m := len(rangeOf)
	master := newAccounting(opt.HistogramBounds, orig)
	var (
		mu         sync.Mutex
		firstErr   error
		wg         sync.WaitGroup
		taskNext   int32
		stop       int32
		aliveBytes int64
		peakBytes  int64
	)
	nw := workers
	if nw > len(bounds) {
		nw = len(bounds)
	}
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var batch []int32
			keep := make([]bool, m)
			for {
				i := int(atomic.AddInt32(&taskNext, 1)) - 1
				if i >= len(bounds) || atomic.LoadInt32(&stop) != 0 {
					return
				}
				hasOwn := false
				for e := 0; e < m; e++ {
					r := rangeOf[e]
					keep[e] = r >= int32(i)
					if r == int32(i) {
						hasOwn = true
					}
				}
				if !hasOwn {
					continue
				}
				// Range 0's candidate is the whole graph: skip the
				// subgraph rebuild and use identity edge ids.
				candG := g
				var parent []int32
				if i > 0 {
					cand := g.InducedByEdges(keep)
					candG, parent = cand.G, cand.ParentEdge
				}
				parentOf := func(se int32) int32 {
					if parent == nil {
						return se
					}
					return parent[se]
				}
				subAssigned := make([]bool, candG.NumEdges())
				for se := range subAssigned {
					subAssigned[se] = rangeOf[parentOf(int32(se))] > int32(i)
				}
				cix := bloom.BuildCompressed(candG, subAssigned, 1)
				sz := cix.SizeBytes()
				atomicMax(&peakBytes, atomic.AddInt64(&aliveBytes, sz))
				q := newIndexedBucket(cix, subAssigned)
				acct := newAccounting(opt.HistogramBounds, orig)
				onUpdate := func(f int32, ns int64) {
					q.Update(f, ns)
					acct.record(parentOf(f))
				}
				cancel := canceller{ch: opt.Cancel}
				cancelled := false
				for q.Len() > 0 {
					if cancel.hit() {
						cancelled = true
						break
					}
					var mbs int64
					batch, mbs = q.PopMinBucket(batch[:0])
					for _, se := range batch {
						phi[parentOf(se)] = mbs
					}
					cix.RemoveBatch(batch, mbs, onUpdate)
					opt.pm.add(int64(len(batch)))
				}
				atomic.AddInt64(&aliveBytes, -sz)
				mu.Lock()
				master.mergeFrom(acct)
				if cancelled && firstErr == nil {
					firstErr = ErrCancelled
				}
				mu.Unlock()
				if cancelled {
					atomic.StoreInt32(&stop, 1)
					return
				}
			}
		}()
	}
	wg.Wait()
	return master, peakBytes, firstErr
}

// cancelledNow reports whether the cancel channel has fired, without the
// canceller's 1/1024 sampling (used at coarse round boundaries).
func cancelledNow(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// atomicMax raises *addr to v if v is larger.
func atomicMax(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v <= cur || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}
