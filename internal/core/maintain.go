package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bigraph"
	"repro/internal/butterfly"
)

// This file implements incremental bitruss maintenance (extension): it
// updates a decomposition across a batch of edge insertions and
// deletions without re-peeling the whole graph, producing bitruss
// numbers identical to a fresh Decompose on the mutated graph.
//
// The localisation rests on two exact observations:
//
//  1. Level locality. Let K* = max(max φ_old(d) over deleted edges d,
//     max over inserted edges i of an upper bound on φ_new(i)). For
//     every k > K*, the k-bitruss of the old and new graphs coincide:
//     the new k-bitruss contains no inserted edge (φ_new(i) <= K* < k)
//     so it is a subgraph of the old graph with min support >= k, and
//     symmetrically the old k-bitruss contains no deleted edge. Hence
//     every surviving edge with φ_old > K* keeps its bitruss number
//     ("frozen"), and no other edge can end above K*.
//
//  2. Butterfly locality. Seed the affected set with the inserted
//     edges and every edge whose support changed, then close it under
//     butterfly adjacency through non-frozen edges (in the new graph).
//     Edges outside the closure share no butterfly — old or new — with
//     any edge whose peel behaviour can differ (a vanished butterfly
//     contains a deleted edge, so its survivors had a support change
//     and are seeds), so the peel process restricted to them evolves
//     exactly as before and their φ is unchanged.
//
// The candidate closure is then re-peeled with frozen edges treated as
// permanently alive — exact because candidates all finish at levels
// <= K*, where frozen edges are never removed by the global peel
// either. When the closure exceeds a size threshold the locality has
// broken down and Maintain falls back to a full decomposition of the
// new graph.

// MaintainOptions configures Maintain. The zero value uses the default
// candidate threshold and falls back to BiT-BU++.
type MaintainOptions struct {
	// MaxCandidateFraction bounds the butterfly-closure size as a
	// fraction of the new graph's edges before Maintain falls back to a
	// full decomposition: 0 selects DefaultMaxCandidateFraction, values
	// >= 1 disable the fallback.
	MaxCandidateFraction float64
	// Algorithm and Tau configure the fallback decomposition
	// (Algorithm defaults to BiT-BU++ when zero-valued, matching the
	// engine's default).
	Algorithm Algorithm
	Tau       float64
	// Workers is the shard count of every maintenance stage (<= 0
	// selects GOMAXPROCS). Every count runs the same pipeline with
	// identical output; 1 runs it on one goroutine. The fallback
	// decomposition receives it verbatim.
	Workers int
	// Ranges is the range count of the re-peel (<= 0 picks a default
	// from the shard count). The fallback receives it verbatim.
	Ranges int
	// Cancel aborts the maintenance (and any fallback) once closed.
	Cancel <-chan struct{}
	// Progress, when non-nil, observes the maintenance stages (delta,
	// closure, peel); the peel counts re-peeled candidates out of the
	// closure size. A fallback re-decomposition reports through the
	// same func with the full edge count as total. Same contract as
	// Options.Progress.
	Progress ProgressFunc

	// pm is the internal throttled meter wrapping Progress, installed
	// by Maintain (see Options.pm).
	pm *progressMeter
}

// DefaultMaxCandidateFraction is the candidate-closure threshold above
// which Maintain abandons the localized path: past half the graph, the
// full peeler's batched bucket processing wins.
const DefaultMaxCandidateFraction = 0.5

// MaintainStats reports how local the maintenance actually was.
type MaintainStats struct {
	Inserted int // edges inserted by the batch
	Deleted  int // edges deleted by the batch

	KStar      int64 // affected level ceiling (see package comment)
	Frozen     int   // edges with φ_old > K*, untouched by the re-peel
	Seeds      int   // inserted edges + edges with changed support
	Candidates int   // butterfly closure actually re-peeled

	ChangedPhi int // edges whose bitruss number differs from carried
	// MaxChangedLevel is the largest level whose edge membership
	// changed (considering changed, inserted and deleted edges), or -1
	// when the decomposition is unchanged. Every community at a level
	// strictly above it is intact; the community index uses this to
	// limit invalidation.
	MaxChangedLevel int64

	FellBack bool // the closure exceeded the threshold: full re-decomposition

	DeltaTime   time.Duration // delta support counting
	ClosureTime time.Duration // seed + butterfly closure BFS
	PeelTime    time.Duration // candidate re-peel (or fallback decomposition)
	TotalTime   time.Duration
}

// ErrStale reports inputs whose shapes disagree (result, graphs and
// remap not derived from one another).
var ErrStale = errors.New("core: maintain inputs disagree")

// Maintain updates the decomposition old of oldG across the mutation
// that produced newG with remap rm (see bigraph.Delta), returning a
// result identical to Decompose(newG, ...) — byte for byte on Phi —
// plus locality statistics. oldG, old and rm are not modified.
func Maintain(oldG *bigraph.Graph, old *Result, newG *bigraph.Graph, rm *bigraph.Remap, opt MaintainOptions) (*Result, *MaintainStats, error) {
	start := time.Now()
	st := &MaintainStats{
		Inserted:        len(rm.Inserted),
		Deleted:         len(rm.Deleted),
		KStar:           -1,
		MaxChangedLevel: -1,
	}
	m1, m2 := oldG.NumEdges(), newG.NumEdges()
	if len(old.Phi) != m1 || len(rm.OldToNew) != m1 || len(rm.NewToOld) != m2 {
		return nil, nil, fmt.Errorf("%w: |old.Phi|=%d |oldG|=%d |rm|=%d/%d |newG|=%d",
			ErrStale, len(old.Phi), m1, len(rm.OldToNew), len(rm.NewToOld), m2)
	}
	cancel := canceller{ch: opt.Cancel}
	opt.pm = newProgressMeter(opt.Progress, 0)

	if rm.Identity() {
		res := &Result{
			Phi:        append([]int64(nil), old.Phi...),
			Sup:        append([]int64(nil), old.Sup...),
			MaxPhi:     old.MaxPhi,
			MaxSupport: old.MaxSupport,
			Metrics:    Metrics{Iterations: 1, KMax: old.Metrics.KMax, TotalButterflies: old.Metrics.TotalButterflies, TotalTime: time.Since(start)},
		}
		st.TotalTime = res.Metrics.TotalTime
		opt.pm.finishAll()
		return res, st, nil
	}

	oldSup := old.Sup
	if oldSup == nil {
		// A result from an older producer: recount once, at full cost.
		_, oldSup = butterfly.CountAndSupports(oldG)
	}

	// Every stage below is sharded across workers (see
	// maintain_parallel.go); the worker count only picks the shard
	// count, and the output is identical for every count.
	workers := maintainWorkers(opt)

	// Delta support counting (butterflies destroyed on the old graph,
	// created on the new one — the two sets cannot overlap) into dense
	// per-edge arrays: maintenance reads the counts once per surviving
	// edge, so a sparse map's hashing would cost more than the O(|E|)
	// arrays it saves.
	t0 := time.Now()
	opt.pm.setStage(StageDelta)
	delArr, delTouched, destroyed := butterfly.DeltaSupportsDense(oldG, rm.Deleted, workers)
	insArr, insTouched, created := butterfly.DeltaSupportsDense(newG, rm.Inserted, workers)
	st.DeltaTime = time.Since(t0)

	inserted := make([]bool, m2)
	for _, e2 := range rm.Inserted {
		inserted[e2] = true
	}
	phiCarried := make([]int64, m2)
	sup2 := make([]int64, m2)
	for e1, e2 := range rm.OldToNew {
		if e2 < 0 {
			continue
		}
		sup2[e2] = oldSup[e1] - delArr[e1]
		phiCarried[e2] = old.Phi[e1]
	}
	for _, e2 := range insTouched {
		sup2[e2] += insArr[e2]
	}
	for e2, s := range sup2 {
		if s < 0 {
			return nil, nil, fmt.Errorf("%w: negative support %d on edge %d", ErrStale, s, e2)
		}
	}

	// Affected level ceiling K*.
	kstar := int64(-1)
	for _, d := range rm.Deleted {
		if old.Phi[d] > kstar {
			kstar = old.Phi[d]
		}
	}
	kstar = maintainKStarParallel(newG, rm.Inserted, sup2, workers, kstar)
	st.KStar = kstar

	// Seeds and butterfly closure over non-frozen edges.
	t1 := time.Now()
	opt.pm.setStage(StageClosure)
	frozen := make([]bool, m2)
	for e2 := 0; e2 < m2; e2++ {
		if !inserted[e2] && phiCarried[e2] > kstar {
			frozen[e2] = true
			st.Frozen++
		}
	}
	maxCand := m2
	frac := opt.MaxCandidateFraction
	if frac == 0 {
		frac = DefaultMaxCandidateFraction
	}
	if frac < 1 {
		maxCand = int(frac * float64(m2))
	}

	inC := make([]bool, m2)
	var cand []int32
	add := func(e int32) {
		if !inC[e] && !frozen[e] {
			inC[e] = true
			cand = append(cand, e)
		}
	}
	for _, i2 := range rm.Inserted {
		add(i2)
	}
	for _, e1 := range delTouched {
		if e2 := rm.OldToNew[e1]; e2 >= 0 {
			add(e2)
		}
	}
	for _, e2 := range insTouched {
		add(e2)
	}
	st.Seeds = len(cand)

	// border holds the frozen edges appearing in candidate butterflies:
	// the re-peel's subgraph must keep that boundary alive.
	cand, border, overflow, err := maintainClosureParallel(newG, frozen, sup2, cand, maxCand, workers, cancel)
	if err != nil {
		return nil, nil, err
	}
	st.ClosureTime = time.Since(t1)
	st.Candidates = len(cand)

	if overflow {
		return maintainFallback(newG, rm, phiCarried, opt, st, start)
	}

	// Re-peel the closure subgraph with the coarse/fine range peeler:
	// frozen edges are permanently alive (they genuinely outlive every
	// candidate level), and non-candidates never share a butterfly with
	// a candidate, so leaving them out is exact.
	t2 := time.Now()
	opt.pm.setTotal(int64(len(cand)))
	opt.pm.setStage(StagePeel)
	phi2 := make([]int64, m2)
	copy(phi2, phiCarried)
	updates, err := maintainPeelParallel(newG, cand, border, frozen, phi2, opt, workers)
	if err != nil {
		return nil, nil, err
	}
	st.PeelTime = time.Since(t2)

	finishStats(st, rm, old, phiCarried, phi2, inserted)
	res := &Result{
		Phi:        phi2,
		Sup:        sup2,
		MaxPhi:     maxOf(phi2),
		MaxSupport: maxOf(sup2),
		Metrics: Metrics{
			CountingTime:     st.DeltaTime,
			ExtractTime:      st.ClosureTime,
			PeelTime:         st.PeelTime,
			SupportUpdates:   updates,
			Iterations:       1,
			KMax:             butterfly.KMax(sup2),
			TotalButterflies: old.Metrics.TotalButterflies - destroyed + created,
		},
	}
	st.TotalTime = time.Since(start)
	res.Metrics.TotalTime = st.TotalTime
	opt.pm.finishAll()
	return res, st, nil
}

// maintainFallback runs a full decomposition of the new graph, keeping
// the maintain contract (identical output, stats filled by diffing).
func maintainFallback(newG *bigraph.Graph, rm *bigraph.Remap, phiCarried []int64, opt MaintainOptions, st *MaintainStats, start time.Time) (*Result, *MaintainStats, error) {
	st.FellBack = true
	algo := opt.Algorithm
	if algo == BiTBS {
		algo = BiTBUPlusPlus
	}
	t0 := time.Now()
	res, err := Decompose(newG, Options{
		Algorithm: algo,
		Tau:       opt.Tau,
		Workers:   opt.Workers,
		Ranges:    opt.Ranges,
		Cancel:    opt.Cancel,
		Progress:  opt.Progress,
	})
	if err != nil {
		return nil, nil, err
	}
	st.PeelTime = time.Since(t0)
	inserted := make([]bool, newG.NumEdges())
	for _, e2 := range rm.Inserted {
		inserted[e2] = true
	}
	finishStats(st, rm, nil, phiCarried, res.Phi, inserted)
	st.TotalTime = time.Since(start)
	return res, st, nil
}

// finishStats fills ChangedPhi and MaxChangedLevel from the φ diff plus
// the batch edges themselves. old may be nil only when rm.Deleted is
// empty or the callers pre-resolved deleted levels (the fallback passes
// nil and relies on phiCarried for survivors; deleted φ values are read
// from old when available).
func finishStats(st *MaintainStats, rm *bigraph.Remap, old *Result, phiCarried, phi2 []int64, inserted []bool) {
	maxLvl := int64(-1)
	bump := func(v int64) {
		if v > maxLvl {
			maxLvl = v
		}
	}
	for e2 := range phi2 {
		switch {
		case inserted[e2]:
			st.ChangedPhi++
			bump(phi2[e2])
		case phi2[e2] != phiCarried[e2]:
			st.ChangedPhi++
			bump(phi2[e2])
			bump(phiCarried[e2])
		}
	}
	if old != nil {
		for _, d := range rm.Deleted {
			bump(old.Phi[d])
		}
	} else if len(rm.Deleted) > 0 {
		// Deleted levels unknown here; K* already bounds them.
		bump(st.KStar)
	}
	st.MaxChangedLevel = maxLvl
}
