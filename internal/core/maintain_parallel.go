package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bigraph"
	"repro/internal/bloom"
	"repro/internal/butterfly"
)

// This file is the incremental-maintenance pipeline that Maintain runs
// for every worker count. MaintainOptions.Workers only picks the shard
// count; the output is identical for every count:
//
//   - delta support counting shards the batch across workers
//     (butterfly.DeltaSupportsDense — summation commutes);
//   - the K* insertion bound strides the inserted edges and merges
//     per-worker maxima (max is order-independent);
//   - the butterfly closure runs as a level-synchronous BFS: workers
//     claim edges by CAS on a shared state array and enumerate their
//     frontier slice with private vertex-mark arrays, so the closure
//     SET — all that downstream consumes — is the BFS closure of the
//     seeds, and the frozen edges touched by candidate butterflies are
//     collected as a by-product;
//   - the re-peel extracts the candidate subgraph (candidates plus
//     touched frozen boundary), freezes the boundary in a compressed
//     BE-Index, and runs the RECEIPT-style coarse/fine range peeler of
//     parallel.go over it. Frozen edges carry a past-the-end range
//     sentinel: every fine range keeps them as assigned, which is
//     exactly "permanently alive".
//
// Exactness of the re-peel: every butterfly of a candidate consists of
// candidates and frozen edges — non-frozen members are candidates by
// closure — so the induced subgraph contains every candidate butterfly
// and the compressed supports equal the maintained sup2. The fallback
// fires iff the full closure exceeds maxCand: the BFS checks at level
// boundaries, and a closure that outgrows maxCand mid-level also
// outgrows it at the level's end.

// maintainWorkers resolves MaintainOptions.Workers to a shard count:
// <= 0 selects GOMAXPROCS, any other value is taken as given.
func maintainWorkers(opt MaintainOptions) int {
	if opt.Workers > 0 {
		return opt.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// maintainSpawn caps actual goroutine fan-out at the core count. Every
// parallel maintenance stage produces the identical result for any
// shard count, so requesting more workers than cores must not cost
// anything — the extra goroutines would only add scheduling and merge
// overhead.
func maintainSpawn(workers int) int {
	if mx := runtime.GOMAXPROCS(0); workers > mx {
		return mx
	}
	return workers
}

// maintainKStarParallel computes max over inserted edges of
// butterfly.PhiUpperBoundMarked by striding the batch across workers, each enumerating
// with a private vertex-mark array (max is order-independent, so the
// sharding cannot change the result).
//
// Pruning: an edge's bound is an h-index over its sup[e] butterflies,
// so it never exceeds sup[e]. Edges are processed in descending sup
// order starting from floor (the deletion-side K*), and every edge
// with sup <= the running best is skipped — it provably cannot raise
// the max, so the returned value is exactly the unpruned maximum. On
// insert-heavy batches this eliminates most of the enumeration.
func maintainKStarParallel(g *bigraph.Graph, inserted []int32, sup []int64, workers int, floor int64) int64 {
	if len(inserted) == 0 {
		return floor
	}
	order := append([]int32(nil), inserted...)
	sort.Slice(order, func(i, j int) bool { return sup[order[i]] > sup[order[j]] })
	workers = maintainSpawn(workers)
	if workers > len(order) {
		workers = len(order)
	}
	newMark := func() []int32 {
		mk := make([]int32, g.NumVertices())
		for i := range mk {
			mk[i] = -1
		}
		return mk
	}
	if workers <= 1 {
		best := floor
		mark := newMark()
		for _, e := range order {
			if sup[e] <= best {
				break // descending order: no remaining edge can raise the max
			}
			if b := butterfly.PhiUpperBoundMarked(g, e, sup, mark); b > best {
				best = b
			}
		}
		return best
	}
	shared := floor
	maxes := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			best := floor
			mark := newMark()
			for j := w; j < len(order); j += workers {
				e := order[j]
				if sup[e] <= best {
					break
				}
				if sb := atomic.LoadInt64(&shared); sb > best {
					best = sb
					if sup[e] <= best {
						break
					}
				}
				if b := butterfly.PhiUpperBoundMarked(g, e, sup, mark); b > best {
					best = b
					// Pruning hint only: a racing lower store cannot lose the
					// max (per-worker maxes are merged below).
					atomic.StoreInt64(&shared, best)
				}
			}
			maxes[w] = best
		}(w)
	}
	wg.Wait()
	best := floor
	for _, b := range maxes {
		if b > best {
			best = b
		}
	}
	return best
}

// Closure BFS state, claimed by CAS in the shared per-edge array:
// closureUnseen (0) — not yet reached; closureBorder (-1) — frozen
// edge touched by a candidate butterfly; k > 0 — candidate claimed
// into BFS frontier level k-1 (seeds are level 0). Level stamps make
// the wedge deferral below safe across levels.
const (
	closureUnseen int32 = 0
	closureBorder int32 = -1
)

// maintainClosureParallel extends the seed set cand to the full
// butterfly closure with a level-synchronous parallel BFS, returning
// the closure, the frozen edges appearing in any candidate's butterfly
// (the boundary the re-peel must keep alive), and whether the closure
// outgrew maxCand (checked at level boundaries, see the file comment). cand must hold
// the seeds, already deduplicated and frozen-free; sup2 is the
// maintained support (edges with sup2 == 0 are kept as candidates but
// have no butterflies to scan, so their visit is skipped).
func maintainClosureParallel(g *bigraph.Graph, frozen []bool, sup2 []int64, cand []int32, maxCand, workers int, cancel canceller) (closure, border []int32, overflow bool, err error) {
	state := make([]int32, g.NumEdges())
	for _, e := range cand {
		state[e] = 1 // frontier level 0
	}
	frontier := append([]int32(nil), cand...)
	if len(cand) > maxCand {
		return cand, nil, true, nil
	}

	nw := maintainSpawn(workers)
	type shard struct {
		next   []int32
		border []int32
	}
	shards := make([]shard, nw)
	marks := make([][]int32, nw)
	newMark := func() []int32 {
		mk := make([]int32, g.NumVertices())
		for i := range mk {
			mk[i] = -1
		}
		return mk
	}
	var wg sync.WaitGroup
	for level := int32(0); len(frontier) > 0; level++ {
		if cancel.hit() {
			return nil, nil, false, ErrCancelled
		}
		// Single-core (or tiny-level) processing runs inline on shard 0;
		// goroutine round-trips would dominate chain-shaped closures.
		if nw == 1 || len(frontier) < 4*nw {
			if marks[0] == nil {
				marks[0] = newMark()
			}
			s := &shards[0]
			for _, e := range frontier {
				if sup2[e] != 0 {
					closureVisitEdge(g, e, level, frozen, state, marks[0], &s.next, &s.border)
				}
			}
		} else {
			wg.Add(nw)
			for w := 0; w < nw; w++ {
				go func(w int) {
					defer wg.Done()
					if marks[w] == nil {
						marks[w] = newMark()
					}
					s := &shards[w]
					for j := w; j < len(frontier); j += nw {
						if e := frontier[j]; sup2[e] != 0 {
							closureVisitEdge(g, e, level, frozen, state, marks[w], &s.next, &s.border)
						}
					}
				}(w)
			}
			wg.Wait()
		}
		frontier = frontier[:0]
		for w := range shards {
			s := &shards[w]
			frontier = append(frontier, s.next...)
			border = append(border, s.border...)
			s.next, s.border = s.next[:0], s.border[:0]
		}
		cand = append(cand, frontier...)
		if len(cand) > maxCand {
			return cand, nil, true, nil
		}
	}
	return cand, border, false, nil
}

// closureVisitEdge enumerates the butterflies of closure edge e
// (processed at frontier level `level`) with an array-marked wedge
// scan, claiming unseen non-frozen members into next and unseen frozen
// members into border. The CAS on state makes each edge land in
// exactly one worker's shard. mark must be all -1 on entry and is
// restored on return.
//
// Wedge deferral: the scan of a wedge partner w is skipped when the
// co-edge (w, v) is a claimed candidate that is processed strictly
// after e — a later BFS level, or the same level with a larger id —
// because every butterfly of e through w also contains (w, v), so that
// edge's own (still pending) visit covers them. Each member's scan of
// a butterfly runs through exactly one wedge co-edge among the other
// members, so the defers-to relation inside one butterfly follows the
// strict (level, id) processing order and cannot form a cycle: some
// member always scans it fully, and the claimed closure is exactly the
// BFS closure of the seeds. Dense candidate clusters drop most of their
// redundant re-enumeration; frozen (border) edges never defer — they
// are never visited.
func closureVisitEdge(g *bigraph.Graph, e, level int32, frozen []bool, state []int32, mark []int32, next, border *[]int32) {
	claimLevel := level + 2 // next frontier: level+1, stored as level+2
	claim := func(f int32) {
		if atomic.LoadInt32(&state[f]) != closureUnseen {
			return
		}
		if frozen[f] {
			if atomic.CompareAndSwapInt32(&state[f], closureUnseen, closureBorder) {
				*border = append(*border, f)
			}
		} else if atomic.CompareAndSwapInt32(&state[f], closureUnseen, claimLevel) {
			*next = append(*next, f)
		}
	}
	ed := g.Edge(e)
	u, v := ed.U, ed.V
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nbrsU, eidsU := g.Neighbors(u)
	for i, x := range nbrsU {
		if x != v {
			mark[x] = eidsU[i]
		}
	}
	nbrsV, eidsV := g.Neighbors(v)
	for j, w := range nbrsV {
		if w == u {
			continue
		}
		ewv := eidsV[j]
		if s := atomic.LoadInt32(&state[ewv]); s > 0 {
			if lv := s - 1; lv > level || (lv == level && ewv > e) {
				continue // deferred: (w, v)'s pending visit scans these butterflies
			}
		}
		nbrsW, eidsW := g.Neighbors(w)
		for l, x := range nbrsW {
			if x == v {
				continue
			}
			eux := mark[x]
			if eux < 0 {
				continue
			}
			claim(eux)
			claim(ewv)
			claim(eidsW[l])
		}
	}
	for _, x := range nbrsU {
		mark[x] = -1
	}
}

// maintainPeelParallel re-peels the closure with the coarse/fine range
// machinery: the induced subgraph of closure ∪ border is built once,
// border (frozen) edges become assigned in a compressed BE-Index and
// get a past-the-end range sentinel so every fine range freezes them,
// and the exact φ of every closure edge is written into phi2 (already
// primed with the carried values). Returns the support-update count.
func maintainPeelParallel(g *bigraph.Graph, closure, border []int32, frozen []bool, phi2 []int64, opt MaintainOptions, workers int) (int64, error) {
	if len(closure) == 0 {
		return 0, nil
	}
	keep := make([]bool, g.NumEdges())
	for _, e := range closure {
		keep[e] = true
	}
	for _, f := range border {
		keep[f] = true
	}
	sub := g.InducedByEdges(keep)
	sm := sub.G.NumEdges()
	subAssigned := make([]bool, sm)
	indexed := 0
	for se, pe := range sub.ParentEdge {
		if frozen[pe] {
			subAssigned[se] = true
		} else {
			indexed++
		}
	}
	cix := bloom.BuildCompressed(sub.G, subAssigned, 1)
	// Coarse mutates the index supports in place: keep the originals.
	// The closure argument (file comment) makes these equal to the
	// maintained sup2 on every indexed edge.
	orig := append([]int64(nil), cix.Supports()...)
	idxSup := make([]int64, 0, indexed)
	for se, a := range subAssigned {
		if !a {
			idxSup = append(idxSup, orig[se])
		}
	}
	spawn := maintainSpawn(workers)
	ranges := opt.Ranges
	if ranges <= 0 {
		if spawn == 1 {
			// One core: range splitting buys no concurrency, so a single
			// range skips the coarse phase entirely and the fine phase
			// degenerates to one compressed BE-Index batch peel of the
			// whole closure — the fastest one-goroutine layout.
			ranges = 1
		} else {
			ranges = defaultRanges(spawn)
		}
	}
	bounds := rangeBounds(idxSup, ranges)
	fopt := Options{Cancel: opt.Cancel, pm: opt.pm}
	var rangeOf []int32
	acct := newAccounting(nil, orig)
	if len(bounds) == 1 {
		// Every indexed edge trivially lands in the only range.
		rangeOf = make([]int32, sm)
	} else {
		var cerr error
		rangeOf, acct, cerr = coarseDecompose(cix, bounds, spawn, fopt, orig, subAssigned)
		if cerr != nil {
			return 0, cerr
		}
	}
	cix = nil
	// Frozen edges belong to every range's kept-and-assigned set: the
	// sentinel is >= every range index and > every owned range.
	sentinel := int32(len(bounds))
	for se, a := range subAssigned {
		if a {
			rangeOf[se] = sentinel
		}
	}
	phiSub := make([]int64, sm)
	fdAcct, _, err := fineDecompose(sub.G, rangeOf, bounds, orig, fopt, spawn, phiSub)
	if err != nil {
		return 0, err
	}
	for se, pe := range sub.ParentEdge {
		if !subAssigned[se] {
			phi2[pe] = phiSub[se]
		}
	}
	acct.mergeFrom(fdAcct)
	return acct.updates, nil
}
