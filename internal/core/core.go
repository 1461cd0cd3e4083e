// Package core implements the bitruss decomposition algorithms of the
// paper: the combination-based baseline BiT-BS (Algorithm 1, from
// Sarıyüce & Pinar with the fast counting of Wang et al.), the BE-Index
// based bottom-up algorithms BiT-BU (Algorithm 4), BiT-BU+ (batch edge
// processing) and BiT-BU++ (Algorithm 5, batch edge + batch bloom), and
// the progressive compression algorithm BiT-PC (Algorithms 6 and 7).
//
// All algorithms compute the same output — the bitruss number φ(e) of
// every edge (Definition 5) — and differ only in cost; the test suite
// cross-validates them against each other and against a naive,
// definition-based decomposition.
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/bigraph"
)

// Algorithm selects a decomposition strategy.
type Algorithm int

const (
	// BiTBS is the peeling baseline that enumerates butterflies with
	// combination-based neighbourhood checks on every edge removal.
	BiTBS Algorithm = iota
	// BiTBU peels one edge at a time through the BE-Index.
	BiTBU
	// BiTBUPlus adds batch edge processing to BiTBU.
	BiTBUPlus
	// BiTBUPlusPlus adds batch edge and batch bloom processing.
	BiTBUPlusPlus
	// BiTPC processes hub edges inside progressively relaxed candidate
	// subgraphs with compressed BE-Indexes.
	BiTPC
	// BiTBUPlusPlusParallel is the shared-memory parallel BiT-BU++: a
	// RECEIPT-style two-phase peeler that partitions edges into coarse
	// support ranges and refines all ranges concurrently (extension;
	// identical output to BiTBUPlusPlus).
	BiTBUPlusPlusParallel
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case BiTBS:
		return "BiT-BS"
	case BiTBU:
		return "BiT-BU"
	case BiTBUPlus:
		return "BiT-BU+"
	case BiTBUPlusPlus:
		return "BiT-BU++"
	case BiTPC:
		return "BiT-PC"
	case BiTBUPlusPlusParallel:
		return "BiT-BU++P"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps the short names shared by the CLI tools and the
// HTTP API (bs, bu, bu+, bu++, bu++p, pc; case-insensitive) onto
// algorithms.
func ParseAlgorithm(name string) (Algorithm, bool) {
	switch strings.ToLower(name) {
	case "bs":
		return BiTBS, true
	case "bu":
		return BiTBU, true
	case "bu+":
		return BiTBUPlus, true
	case "bu++":
		return BiTBUPlusPlus, true
	case "bu++p":
		return BiTBUPlusPlusParallel, true
	case "pc":
		return BiTPC, true
	default:
		return 0, false
	}
}

// DefaultTau is the paper's default value of the BiT-PC threshold
// decrement fraction τ (Section VI: "we set τ as 0.02 by default").
const DefaultTau = 0.02

// Options configures Decompose.
type Options struct {
	// Algorithm selects the decomposition strategy. The zero value is
	// BiTBS, matching the paper's baseline.
	Algorithm Algorithm
	// Tau is the BiT-PC threshold decrement fraction τ ∈ (0, 1]; 0
	// selects DefaultTau. Ignored by the other algorithms.
	Tau float64
	// HistogramBounds, when non-empty, requests the Figure 7 update
	// histogram: bucket i counts support updates to edges whose
	// *original* support is <= HistogramBounds[i] (ascending); one
	// overflow bucket is appended.
	HistogramBounds []int64
	// Workers parallelises the decomposition (extension). Per stage:
	//   - BiTBS and BiTPC: the initial butterfly counting runs on Workers
	//     goroutines; BiTPC's per-iteration counting and compressed
	//     index builds stay on one;
	//   - BiTBU, BiTBU+ and BiTBU++: the BE-Index construction (which
	//     fuses the counting) runs in Workers chunks; the peel is serial;
	//   - BiTBUPlusPlusParallel: <= 0 selects GOMAXPROCS; the index is
	//     built in Workers chunks and both peeling phases run on Workers
	//     goroutines.
	// Elsewhere <= 1 means one goroutine. The counting and the index
	// build cap their fan-out at GOMAXPROCS, since each goroutine holds
	// O(|E|) transient bytes; every worker count gives the same result.
	Workers int
	// Ranges is the number of coarse support ranges of the
	// BiTBUPlusPlusParallel peeler; 0 picks a default derived from
	// Workers. Ignored by the other algorithms.
	Ranges int
	// Cancel, when non-nil, aborts the decomposition once closed;
	// Decompose then returns ErrCancelled. The experiment harness uses
	// it to enforce per-run time budgets (the paper terminates
	// algorithms after 30 hours and reports INF).
	Cancel <-chan struct{}
	// Progress, when non-nil, observes the run: stage transitions plus
	// a throttled count of edges whose bitruss number is final (see
	// ProgressFunc). Multi-minute runs on large graphs stop being
	// opaque; the engine serves it at /v1/datasets/{name}/jobs/{id}.
	Progress ProgressFunc

	// pm is the internal throttled meter wrapping Progress; Decompose
	// installs it so the algorithm implementations and the parallel
	// sub-phases share one counter without widening every signature.
	pm *progressMeter
}

// ErrCancelled reports that Options.Cancel fired mid-decomposition.
var ErrCancelled = errors.New("core: decomposition cancelled")

// canceller polls Options.Cancel cheaply from tight peeling loops.
type canceller struct {
	ch      <-chan struct{}
	counter uint32
}

// hit reports whether the cancel channel has fired, checking the channel
// only once every 1024 calls.
func (c *canceller) hit() bool {
	if c.ch == nil {
		return false
	}
	c.counter++
	// Check on the first call (so a pre-fired cancel aborts immediately)
	// and then once every 1024 calls.
	if c.counter&1023 != 1 {
		return false
	}
	select {
	case <-c.ch:
		return true
	default:
		return false
	}
}

// Metrics reports the cost breakdown the paper's evaluation section
// measures.
type Metrics struct {
	CountingTime time.Duration // the counting process (Figure 5)
	IndexTime    time.Duration // BE-Index construction, all iterations
	ExtractTime  time.Duration // BiT-PC candidate extraction + recount; BiT-BU++P coarse range assignment
	PeelTime     time.Duration // the peeling process (Figure 5)
	TotalTime    time.Duration

	// SupportUpdates is the number of butterfly support updates
	// performed on edges (Figures 7, 10, 14(b)).
	SupportUpdates int64
	// UpdatesByOrigSupport is the Figure 7 histogram (see
	// Options.HistogramBounds); nil when not requested.
	UpdatesByOrigSupport []int64

	// PeakIndexBytes is the largest resident BE-Index size (Figure 11);
	// zero for BiT-BS.
	PeakIndexBytes int64

	Iterations       int   // candidate iterations (BiT-PC) or coarse ranges (BiT-BU++P); 1 otherwise
	KMax             int64 // largest possible bitruss number bound
	TotalButterflies int64 // ⋈G
}

// Result is the outcome of a decomposition.
type Result struct {
	// Phi holds the bitruss number of every edge, indexed by edge id.
	Phi []int64
	// Sup holds the initial butterfly support of every edge, indexed by
	// edge id. Incremental maintenance carries it across mutations so
	// supports never need a full recount.
	Sup []int64
	// MaxPhi is the largest bitruss number (φ_emax of Table II).
	MaxPhi int64
	// MaxSupport is the largest initial butterfly support (⋈_emax).
	MaxSupport int64
	Metrics    Metrics
}

// SizeBytes returns the resident heap footprint of the result's
// per-edge arrays (Phi and Sup): 16 bytes/edge.
func (r *Result) SizeBytes() int64 {
	return int64(len(r.Phi))*8 + int64(len(r.Sup))*8
}

// ErrBadTau reports an out-of-range τ.
var ErrBadTau = errors.New("core: tau must lie in (0, 1]")

// ErrUnknownAlgorithm reports an unrecognised Options.Algorithm.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// Decompose computes the bitruss number of every edge of g with the
// selected algorithm.
func Decompose(g *bigraph.Graph, opt Options) (*Result, error) {
	if opt.Tau == 0 {
		opt.Tau = DefaultTau
	}
	if opt.Tau < 0 || opt.Tau > 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadTau, opt.Tau)
	}
	opt.pm = newProgressMeter(opt.Progress, int64(g.NumEdges()))
	opt.pm.setStage(StageCounting)
	var (
		res *Result
		err error
	)
	start := time.Now()
	switch opt.Algorithm {
	case BiTBS:
		res, err = runBS(g, opt)
	case BiTBU, BiTBUPlus, BiTBUPlusPlus:
		res, err = runBU(g, opt)
	case BiTBUPlusPlusParallel:
		res, err = runBUParallel(g, opt)
	case BiTPC:
		res, err = runPC(g, opt)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownAlgorithm, int(opt.Algorithm))
	}
	if err != nil {
		return nil, err
	}
	res.Metrics.TotalTime = time.Since(start)
	res.MaxPhi = maxOf(res.Phi)
	opt.pm.finishAll()
	return res, nil
}

func maxOf(s []int64) int64 {
	var m int64
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// accounting tracks support-update counts and the optional Figure 7
// histogram keyed by original support.
type accounting struct {
	updates int64
	bounds  []int64
	hist    []int64
	orig    []int64 // original full-graph supports, by parent edge id
}

func newAccounting(bounds, orig []int64) *accounting {
	a := &accounting{bounds: bounds, orig: orig}
	if len(bounds) > 0 {
		a.hist = make([]int64, len(bounds)+1)
	}
	return a
}

// record accounts one support update to parent edge e.
func (a *accounting) record(e int32) {
	a.updates++
	if a.hist == nil {
		return
	}
	s := a.orig[e]
	for i, b := range a.bounds {
		if s <= b {
			a.hist[i]++
			return
		}
	}
	a.hist[len(a.bounds)]++
}

// mergeFrom folds another accounting over the same bounds into a; the
// parallel peeler gives each worker a private accounting and merges them.
func (a *accounting) mergeFrom(b *accounting) {
	a.updates += b.updates
	for i := range b.hist {
		a.hist[i] += b.hist[i]
	}
}

func (a *accounting) fill(m *Metrics) {
	m.SupportUpdates = a.updates
	m.UpdatesByOrigSupport = a.hist
}
