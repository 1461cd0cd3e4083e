package engine

// This file is the analytics subsystem: tip decomposition and maximal
// biclique enumeration served from the same immutable snapshots as the
// bitruss queries. Both are pure functions of the snapshot's graph, so
// they are memoised per snapshot — computed at most once per layer (or
// per threshold pair), version-stamped for free, and dropped with the
// snapshot when a mutation installs a successor. Computation is lazy by
// default (first query pays), or eager at decompose time behind
// Options.Tip; long runs are registered in the dataset's job log like
// decompositions.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/biclique"
	"repro/internal/core"
	"repro/internal/tip"
)

// Analytics errors.
var (
	// ErrTipNotComputed rejects tip queries when lazy analytics are
	// disabled (SetLazyTip(false)) and the snapshot was decomposed
	// without Options.Tip.
	ErrTipNotComputed = errors.New("engine: tip not computed for this snapshot")
	// ErrEnumerationTooLarge rejects a biclique enumeration that
	// exceeds the engine's result bound (SetBicliqueLimit).
	ErrEnumerationTooLarge = errors.New("engine: biclique enumeration too large")
	// ErrNoVertex reports a vertex index outside the addressed layer.
	ErrNoVertex = errors.New("engine: no such vertex")
)

// DefaultBicliqueLimit bounds a single memoised biclique enumeration
// (number of maximal bicliques) unless overridden by SetBicliqueLimit.
const DefaultBicliqueLimit = 100000

// maxBicliqueEntries bounds how many distinct threshold pairs one
// snapshot memoises; beyond it the oldest enumeration is dropped (it
// recomputes on the next request).
const maxBicliqueEntries = 4

// analytics is the per-snapshot memo of analytics results. It hangs
// off a snapshot but is not part of the snapshot's immutable state: it
// has its own synchronisation, and its contents are a pure function of
// the snapshot's graph, so late materialisation is invisible to
// consistency (two Views of one version always agree).
type analytics struct {
	tipOnce [2]sync.Once
	tipRes  [2]atomic.Pointer[tip.Result] // indexed by layerIndex

	bicMu    sync.Mutex
	bic      map[bicKey]*bicEntry
	bicOrder []bicKey // FIFO eviction
}

type bicKey struct{ minUpper, minLower int }

// bicEntry is a singleflight slot: the first requester computes and
// closes done; concurrent requesters of the same thresholds wait.
type bicEntry struct {
	done chan struct{}
	res  *biclique.Result
	err  error
}

func newAnalytics() *analytics {
	return &analytics{bic: make(map[bicKey]*bicEntry)}
}

// tipBytes is the resident size of the materialised tip results.
func (a *analytics) tipBytes() int64 {
	if a == nil {
		return 0
	}
	return a.tipRes[0].Load().SizeBytes() + a.tipRes[1].Load().SizeBytes()
}

func layerIndex(layer Layer) (int, error) {
	switch layer {
	case UpperLayer:
		return 0, nil
	case LowerLayer:
		return 1, nil
	default:
		return 0, fmt.Errorf("engine: unknown layer %d", int(layer))
	}
}

// SetLazyTip controls whether tip queries may compute the
// decomposition on demand (the default). When disabled, tip state
// exists only for snapshots decomposed with Options.Tip, and tip
// queries against other snapshots fail with ErrTipNotComputed —
// operators use this to keep analytics CPU off the query path.
func (e *Engine) SetLazyTip(enabled bool) { e.lazyTipOff.Store(!enabled) }

// SetBicliqueLimit bounds every biclique enumeration to n maximal
// bicliques; an enumeration that would exceed it fails with
// ErrEnumerationTooLarge. n <= 0 restores DefaultBicliqueLimit.
func (e *Engine) SetBicliqueLimit(n int) {
	if n <= 0 {
		n = DefaultBicliqueLimit
	}
	e.bicLimit.Store(int64(n))
}

func (e *Engine) bicliqueLimit() int {
	if e == nil {
		return DefaultBicliqueLimit
	}
	if n := e.bicLimit.Load(); n > 0 {
		return int(n)
	}
	return DefaultBicliqueLimit
}

// analyticsJob registers a labelled job in the dataset's job log (the
// PR 8 ring served by /jobs), so long enumerations are observable like
// decompositions. Views without an engine backref (publish-hook views)
// run unregistered; the returned job may be nil and is nil-safe via
// job.observe/finish call sites guarding.
func (v *View) analyticsJob(label string) *job {
	if v.eng == nil || v.ds == nil {
		return nil
	}
	j := &job{id: v.eng.jobSeq.Add(1), dataset: v.name, label: label, started: time.Now()}
	v.ds.mu.Lock()
	v.ds.jobs.add(j)
	v.ds.mu.Unlock()
	return j
}

// Tip returns the tip decomposition of one layer of the viewed
// snapshot, computing and memoising it on first use (unless lazy
// analytics are disabled — then only snapshots decomposed with
// Options.Tip carry tip state). The result is immutable and shared;
// callers must not modify it.
func (v *View) Tip(layer Layer) (*tip.Result, error) {
	i, err := layerIndex(layer)
	if err != nil {
		return nil, err
	}
	a := v.snap.ana
	if r := a.tipRes[i].Load(); r != nil {
		return r, nil
	}
	if v.eng != nil && v.eng.lazyTipOff.Load() {
		return nil, fmt.Errorf("%w: %q", ErrTipNotComputed, v.name)
	}
	a.tipOnce[i].Do(func() {
		label := "tip:lower"
		if i == 0 {
			label = "tip:upper"
		}
		j := v.analyticsJob(label)
		res := tip.DecomposeOptions(v.snap.g, i == 0, tip.Options{Progress: jobProgress(j)})
		a.tipRes[i].Store(res)
		if j != nil {
			j.finish(nil)
		}
	})
	return a.tipRes[i].Load(), nil
}

// Theta returns the tip number of one layer-local vertex.
func (v *View) Theta(layer Layer, vertex int) (int64, error) {
	i, err := layerIndex(layer)
	if err != nil {
		return 0, err
	}
	var size int
	if i == 0 {
		size = v.snap.g.NumUpper()
	} else {
		size = v.snap.g.NumLower()
	}
	if vertex < 0 || vertex >= size {
		return 0, fmt.Errorf("%w: %d (layer size %d)", ErrNoVertex, vertex, size)
	}
	res, err := v.Tip(layer)
	if err != nil {
		return 0, err
	}
	return res.Theta[vertex], nil
}

// Bicliques returns the complete maximal-biclique enumeration of the
// viewed snapshot at the given thresholds, memoised per (snapshot,
// thresholds) with singleflight semantics: concurrent first requests
// compute once. Enumerations beyond the engine's limit fail with
// ErrEnumerationTooLarge (the failure is memoised too — retrying the
// same thresholds on the same version cannot succeed). The result is
// immutable and shared.
func (v *View) Bicliques(minUpper, minLower int) (*biclique.Result, error) {
	if minUpper < 1 {
		minUpper = 1
	}
	if minLower < 1 {
		minLower = 1
	}
	key := bicKey{minUpper, minLower}
	a := v.snap.ana
	a.bicMu.Lock()
	ent, ok := a.bic[key]
	if !ok {
		ent = &bicEntry{done: make(chan struct{})}
		a.bic[key] = ent
		a.bicOrder = append(a.bicOrder, key)
		if len(a.bicOrder) > maxBicliqueEntries {
			oldest := a.bicOrder[0]
			a.bicOrder = a.bicOrder[1:]
			delete(a.bic, oldest)
		}
		a.bicMu.Unlock()

		j := v.analyticsJob(fmt.Sprintf("bicliques(%d,%d)", minUpper, minLower))
		limit := DefaultBicliqueLimit
		if v.eng != nil {
			limit = v.eng.bicliqueLimit()
		}
		res, err := biclique.Enumerate(v.snap.g, biclique.Options{
			MinUpper: minUpper,
			MinLower: minLower,
			Limit:    limit,
			Progress: jobProgress(j),
		})
		if errors.Is(err, biclique.ErrTooLarge) {
			err = fmt.Errorf("%w: more than %d maximal bicliques at min_upper=%d min_lower=%d",
				ErrEnumerationTooLarge, limit, minUpper, minLower)
		}
		ent.res, ent.err = res, err
		if j != nil {
			j.finish(err)
		}
		close(ent.done)
		return ent.res, ent.err
	}
	a.bicMu.Unlock()
	<-ent.done
	return ent.res, ent.err
}

// BicliquesPage returns the half-open rank window [offset,
// offset+limit) of the enumeration at the given thresholds (the paging
// primitive behind the v1 /bicliques endpoint; a negative limit means
// "to the end") plus the total count. The enumeration order is the
// deterministic total order of the biclique package, so a cursor walk
// pinned to one version reconstructs the enumeration exactly once.
func (v *View) BicliquesPage(minUpper, minLower, offset, limit int) ([]biclique.Biclique, int, error) {
	res, err := v.Bicliques(minUpper, minLower)
	if err != nil {
		return nil, 0, err
	}
	total := len(res.Bicliques)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	end := total
	if limit >= 0 && offset+limit < end {
		end = offset + limit
	}
	return res.Bicliques[offset:end], total, nil
}

// jobProgress adapts a (possibly nil) job into a core.ProgressFunc.
func jobProgress(j *job) core.ProgressFunc {
	if j == nil {
		return nil
	}
	return j.observe
}
