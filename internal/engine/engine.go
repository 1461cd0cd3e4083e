// Package engine turns the one-shot decomposition library into a
// resident query engine over versioned mutable datasets: a registry of
// named graphs that are loaded once, decomposed asynchronously
// (reusing the parallel peelers via Options.Workers/Ranges), mutated
// through a per-dataset mutation log with batched application and
// incremental bitruss maintenance (core.Maintain), and queried
// concurrently — φ lookups, k-bitruss extraction, community-of-vertex
// and top-k community queries — from immutable snapshots.
//
// Every dataset serves queries from its current snapshot (graph +
// decomposition + community index, stamped with the graph version).
// Engine.View hands out a View onto that snapshot; View is the only
// query surface, and every answer of one View comes from one version.
// Mutations are staged into a pending log and applied in batches by a
// single background applier per dataset, which builds the next
// snapshot off to the side and swaps it in atomically. Queries issued
// while version N+1 is being maintained keep answering from version N
// and never block. The HTTP front end (internal/server, cmd/bitserved)
// is a thin layer over this package.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bigraph"
	"repro/internal/butterfly"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/tip"
)

// Errors returned by engine operations.
var (
	ErrNotFound      = errors.New("engine: dataset not found")
	ErrExists        = errors.New("engine: dataset already registered")
	ErrNotDecomposed = errors.New("engine: dataset not decomposed yet")
	ErrBusy          = errors.New("engine: decomposition already in flight")
	ErrNoEdge        = errors.New("engine: no such edge")
	ErrNoCommunity   = errors.New("engine: no community")
	ErrClosed        = errors.New("engine: shut down")
	// ErrRecovering rejects queries and writes against a dataset whose
	// crash recovery has not finished yet; the HTTP layer maps it to
	// 503 + Retry-After, which the typed client retries.
	ErrRecovering = errors.New("engine: dataset recovering")
)

// Status is the lifecycle state of a dataset.
type Status int

const (
	// StatusLoaded: the graph is resident but has no decomposition.
	StatusLoaded Status = iota
	// StatusDecomposing: a decomposition is running in the background.
	StatusDecomposing
	// StatusReady: a decomposition and its hierarchy index are cached.
	StatusReady
	// StatusFailed: the last decomposition attempt returned an error.
	StatusFailed
	// StatusRecovering: the dataset is being rebuilt from its durable
	// snapshot and write-ahead log after a restart; queries fail with
	// ErrRecovering until it is back.
	StatusRecovering
)

// String implements fmt.Stringer with the JSON-facing names.
func (s Status) String() string {
	switch s {
	case StatusLoaded:
		return "loaded"
	case StatusDecomposing:
		return "decomposing"
	case StatusReady:
		return "ready"
	case StatusFailed:
		return "failed"
	case StatusRecovering:
		return "recovering"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options configures one decomposition run of a dataset.
type Options struct {
	// Algorithm selects the strategy (default BiT-BU++, the best
	// all-round serial choice).
	Algorithm core.Algorithm
	// Tau is the BiT-PC threshold decrement fraction (0 = default).
	Tau float64
	// Workers and Ranges are routed to core.Options verbatim.
	Workers int
	Ranges  int
	// Tip additionally computes the tip decomposition of both layers
	// at decompose time (eager analytics): the published snapshot then
	// serves /tip and /theta without a first-query computation, even
	// when lazy analytics are disabled via SetLazyTip(false).
	Tip bool
}

// MemoryStats is the resident footprint of one dataset's served
// snapshot, broken down by structure. Every figure is computed from
// slice lengths — cheap enough for every Info call — and counts the
// data arrays, not allocator slack. The query-response cache is
// reported separately via View.CacheStats. All figures except TipBytes
// are deterministic for one snapshot; TipBytes appears (and then stays
// constant) once the snapshot's tip state materialises — immediately
// for Options.Tip decompositions, at the first tip query otherwise.
type MemoryStats struct {
	GraphBytes   int64   // CSR adjacency + edge list + rank order
	ResultBytes  int64   // φ and support arrays
	IndexBytes   int64   // community hierarchy index structure
	TipBytes     int64   // materialised tip decompositions (both layers)
	TotalBytes   int64   // sum of the above
	BytesPerEdge float64 // TotalBytes / edges (0 on an empty graph)
}

// DatasetInfo is a read-only snapshot of one dataset.
type DatasetInfo struct {
	Name      string
	Upper     int
	Lower     int
	Edges     int
	Version   int64 // mutation version of the served snapshot
	Pending   int   // staged mutation requests not yet applied
	Status    Status
	Algo      string        // algorithm of the cached/running decomposition
	MaxPhi    int64         // valid when Status == StatusReady
	Levels    int           // populated bitruss levels when ready
	TotalTime time.Duration // decomposition wall time when ready
	Err       string        // failure message when Status == StatusFailed
	JobID     int64         // in-flight or most recent decomposition job (0 = none)
	Mem       MemoryStats   // resident footprint of the served snapshot
}

// snapshot is one immutable serving state of a dataset: a graph
// version plus (optionally) its decomposition and community index.
// Snapshots are never modified after installation; queries that read
// several fields of one snapshot are therefore consistent with a
// single version by construction.
type snapshot struct {
	version int64
	g       *bigraph.Graph
	res     *core.Result     // nil until a decomposition completes
	idx     *community.Index // non-nil iff res is
	algo    core.Algorithm   // algorithm that produced res
	// cache memoises marshalled query responses for this snapshot (nil
	// when caching is disabled). It lives and dies with the snapshot:
	// installing a successor drops every entry atomically, so no stale
	// response can outlive its version.
	cache *queryCache
	// ana memoises the snapshot's analytics results (tip decomposition,
	// biclique enumerations). Like cache it lives and dies with the
	// snapshot; unlike the fields above it materialises lazily behind
	// its own synchronisation (see the analytics type).
	ana *analytics
}

// MutateRequest is a batch of edge mutations against a dataset, as
// layer-local (upper, lower) pairs. Inserts are staged before deletes
// within one request; across requests, submission order is preserved.
type MutateRequest struct {
	Insert [][2]int
	Delete [][2]int
	// Wait blocks until the mutation is part of the served snapshot
	// (and reports the resulting version); otherwise the call returns
	// after staging.
	Wait bool
}

// MutateResult reports the outcome of a mutation request.
type MutateResult struct {
	// Version is the snapshot version containing the mutation when the
	// request waited; for fire-and-forget requests it is the version
	// served at staging time.
	Version int64
	// Pending counts staged requests not yet applied (at staging time).
	Pending int
	// Applied is false when the batch was a net no-op (duplicate
	// inserts, deletes of absent edges).
	Applied bool
	// Inserted and Deleted count the edges actually changed.
	Inserted int
	Deleted  int
	// Maintained reports that the decomposition was carried across the
	// mutation incrementally (false when the dataset had none, or when
	// the batch was a no-op).
	Maintained bool
	// FellBack reports that the affected region exceeded the locality
	// threshold and a full re-decomposition ran instead.
	FellBack bool
	// Candidates and ChangedPhi are the maintenance locality stats.
	Candidates int
	ChangedPhi int
	Duration   time.Duration
}

// MutationRecord is one applied batch — one epoch of the applier
// pipeline — in a dataset's mutation log.
type MutationRecord struct {
	Epoch      int64 // 1-based applied-batch sequence number of the dataset
	Version    int64 // version the batch produced
	Requests   int   // mutation requests coalesced into the batch
	Inserted   int
	Deleted    int
	Maintained bool
	FellBack   bool
	Candidates int
	ChangedPhi int
	Workers    int // fan-out the maintenance and index phases ran with

	// Per-phase wall times of the epoch (see the epoch type): staging
	// the coalesced graph delta, parallel butterfly delta counting,
	// closure + re-peel (or the fallback decomposition), community
	// index update, and cache pre-warm + atomic snapshot swap.
	StageTime   time.Duration
	DeltaTime   time.Duration
	PeelTime    time.Duration
	IndexTime   time.Duration
	PublishTime time.Duration
	Duration    time.Duration // end-to-end epoch time
}

// DefaultMutationLogCap is the per-dataset mutation-history retention
// unless overridden with SetMutationLogCap.
const DefaultMutationLogCap = 128

// mutLog is a fixed-capacity ring buffer of applied-batch records:
// once full, each append overwrites the oldest entry in place, so a
// dataset under sustained writes retains its most recent epochs at
// O(cap) memory with no reallocation or copying churn.
type mutLog struct {
	buf  []MutationRecord
	head int // index of the oldest record
	n    int // live records
}

func newMutLog(capacity int) *mutLog {
	if capacity <= 0 {
		capacity = DefaultMutationLogCap
	}
	return &mutLog{buf: make([]MutationRecord, capacity)}
}

func (l *mutLog) add(rec MutationRecord) {
	if l.n < len(l.buf) {
		l.buf[(l.head+l.n)%len(l.buf)] = rec
		l.n++
		return
	}
	l.buf[l.head] = rec
	l.head = (l.head + 1) % len(l.buf)
}

// records returns the retained history oldest-first.
func (l *mutLog) records() []MutationRecord {
	out := make([]MutationRecord, l.n)
	for i := range out {
		out[i] = l.buf[(l.head+i)%len(l.buf)]
	}
	return out
}

// mutOp is one staged mutation request.
type mutOp struct {
	req  MutateRequest
	done chan mutOutcome // buffered; receives exactly one outcome
}

type mutOutcome struct {
	info MutateResult
	err  error
}

// dataset is one registered graph plus its serving and mutation state.
type dataset struct {
	name string

	mu      sync.RWMutex // guards snap, status, recovering, err, cancel, done, log, jobs, epochs, workers, ranges
	snap    *snapshot
	status  Status
	runAlgo core.Algorithm // algorithm of the in-flight run
	err     error
	cancel  context.CancelFunc
	done    chan struct{} // closed when the in-flight decomposition or recovery ends
	log     *mutLog
	jobs    *jobLog
	epochs  int64 // applied-batch count; stamps MutationRecord.Epoch
	// recovering marks a dataset still being rebuilt from durable
	// state; queries and writes fail with ErrRecovering meanwhile.
	recovering bool
	// workers/ranges of the cached decomposition: fan-out for the
	// maintenance and index phases of subsequent epochs.
	workers int
	ranges  int

	// workMu serialises snapshot-producing work (decompositions,
	// mutation applications, durable snapshots and recovery); queries
	// never take it.
	workMu sync.Mutex
	// dur is the dataset's durability machinery (nil when durability is
	// off), touched only under workMu.
	dur *durableState

	pendMu   sync.Mutex
	pending  []*mutOp
	applying bool
	appliers sync.WaitGroup
}

// Engine is the resident registry. All methods are safe for concurrent
// use; queries against one dataset proceed while others decompose or
// apply mutations.
type Engine struct {
	mu       sync.RWMutex
	datasets map[string]*dataset

	jobSeq        atomic.Int64 // process-unique decomposition job ids
	cacheMaxBytes atomic.Int64 // per-snapshot response cache bound; <= 0 disables
	mutLogCap     atomic.Int64 // mutation-log ring capacity for new datasets
	lazyTipOff    atomic.Bool  // SetLazyTip(false): no on-demand tip computation
	bicLimit      atomic.Int64 // max bicliques per enumeration (0 = default)
	onPublish     atomic.Value // func(dataset string, v *View), may hold nil
	dur           *durConfig   // durability config (nil = off); guarded by mu

	closeOnce sync.Once
	closed    chan struct{}
}

// New returns an empty engine.
func New() *Engine {
	e := &Engine{datasets: make(map[string]*dataset), closed: make(chan struct{})}
	e.cacheMaxBytes.Store(defaultCacheMaxBytes)
	e.mutLogCap.Store(DefaultMutationLogCap)
	return e
}

// SetMutationLogCap sets the per-dataset mutation-log ring capacity
// (number of retained applied-batch records); n <= 0 restores
// DefaultMutationLogCap. The setting applies to datasets registered
// afterwards — typically call it once at startup.
func (e *Engine) SetMutationLogCap(n int) { e.mutLogCap.Store(int64(n)) }

// SetCacheMaxBytes bounds the per-snapshot query-response cache (in
// payload bytes); n <= 0 disables caching entirely. The setting applies
// to snapshots installed afterwards — typically call it once at startup
// before registering datasets.
func (e *Engine) SetCacheMaxBytes(n int64) { e.cacheMaxBytes.Store(n) }

// publishHook is the registered snapshot-publication callback type.
type publishHook func(dataset string, v *View)

// SetPublishHook registers fn to be called whenever a dataset has
// produced a decomposed snapshot — on decomposition completion and on
// every applied mutation batch. The hook runs synchronously on the
// background goroutine that produced the snapshot (never on a query
// path), immediately BEFORE the snapshot is installed for serving:
// queries keep answering from the previous version until the hook
// returns, so whatever it fills into the View's cache (the HTTP layer
// pre-warms responses) is visible from the new version's first
// request. At most one hook is active; passing nil unregisters.
func (e *Engine) SetPublishHook(fn func(dataset string, v *View)) {
	e.onPublish.Store(publishHook(fn))
}

func (e *Engine) firePublish(name string, snap *snapshot) {
	fn, ok := e.onPublish.Load().(publishHook)
	if !ok || fn == nil {
		return
	}
	// The hook runs on a producer goroutine with nothing above it to
	// recover: a panic that a query path would turn into one failed
	// request must not take the whole process down just because the
	// pre-warmer hit it first. Publication proceeds; the affected
	// entries simply stay cold.
	defer func() {
		if r := recover(); r != nil {
			log.Printf("engine: publish hook for %q panicked: %v", name, r)
		}
	}()
	fn(name, &View{name: name, snap: snap})
}

func (e *Engine) newCache() *queryCache {
	return newQueryCache(e.cacheMaxBytes.Load())
}

func (e *Engine) isClosed() bool {
	select {
	case <-e.closed:
		return true
	default:
		return false
	}
}

// Register adds an in-memory graph under name. With durability
// enabled, the dataset's initial graph-only snapshot is persisted
// before Register returns, so it is recoverable from its first moment;
// a persistence failure unregisters it again.
func (e *Engine) Register(name string, g *bigraph.Graph) error {
	if name == "" {
		return fmt.Errorf("engine: empty dataset name")
	}
	if e.isClosed() {
		return ErrClosed
	}
	ds := &dataset{
		name:   name,
		snap:   &snapshot{version: g.Version(), g: g, cache: e.newCache(), ana: newAnalytics()},
		status: StatusLoaded,
		log:    newMutLog(int(e.mutLogCap.Load())),
		jobs:   newJobLog(DefaultJobLogCap),
	}
	e.mu.Lock()
	if _, ok := e.datasets[name]; ok {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	dur := e.dur
	if dur != nil {
		// Hold the work mutex across the registry insert so mutation
		// appliers cannot run an epoch before the durable state exists
		// (they would skip its WAL). Uncontended here: the dataset is
		// not yet visible.
		ds.workMu.Lock()
	}
	e.datasets[name] = ds
	e.mu.Unlock()
	if dur == nil {
		return nil
	}
	err := e.setupDurable(ds, g)
	ds.workMu.Unlock()
	if err != nil {
		e.mu.Lock()
		if cur, ok := e.datasets[name]; ok && cur == ds {
			delete(e.datasets, name)
		}
		e.mu.Unlock()
		return fmt.Errorf("engine: persisting %q: %w", name, err)
	}
	return nil
}

// Load reads a graph file (text edge list or .bg binary, optionally
// gzip-compressed) and registers it under name.
func (e *Engine) Load(name, path string, oneBased bool) error {
	g, err := dataio.LoadFile(path, dataio.TextOptions{OneBased: oneBased})
	if err != nil {
		return err
	}
	return e.Register(name, g)
}

// Remove unregisters a dataset, cancelling any in-flight
// decomposition. With durability enabled its persisted state is
// deleted too — a removed dataset must not resurrect on the next
// restart. Removal of a recovering dataset blocks until its recovery
// goroutine finishes.
func (e *Engine) Remove(name string) error {
	e.mu.Lock()
	ds, ok := e.datasets[name]
	if ok {
		delete(e.datasets, name)
	}
	cfg := e.dur
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	ds.mu.Lock()
	cancel := ds.cancel
	ds.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if cfg != nil {
		// Serialise against in-flight epochs and recovery, then delete
		// the durable directory. Mutations staged before removal fail
		// their WAL appends against the closed log, which is correct:
		// the dataset no longer exists.
		ds.workMu.Lock()
		ds.closeDurable()
		err := cfg.fs.RemoveAll(cfg.datasetDir(name))
		ds.workMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) dataset(name string) (*dataset, error) {
	e.mu.RLock()
	ds, ok := e.datasets[name]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ds, nil
}

// recoveringErr rejects work against a dataset still rebuilding from
// durable state. Info and List stay answerable (they report the
// "recovering" status); anything that reads or writes data waits.
func (ds *dataset) recoveringErr() error {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if ds.recovering {
		return fmt.Errorf("%w: %q", ErrRecovering, ds.name)
	}
	return nil
}

// List returns a snapshot of every dataset, sorted by name.
func (e *Engine) List() []DatasetInfo {
	e.mu.RLock()
	all := make([]*dataset, 0, len(e.datasets))
	for _, ds := range e.datasets {
		all = append(all, ds)
	}
	e.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	out := make([]DatasetInfo, len(all))
	for i, ds := range all {
		out[i] = ds.info()
	}
	return out
}

// Info returns the snapshot of one dataset.
func (e *Engine) Info(name string) (DatasetInfo, error) {
	ds, err := e.dataset(name)
	if err != nil {
		return DatasetInfo{}, err
	}
	return ds.info(), nil
}

func (ds *dataset) info() DatasetInfo {
	ds.pendMu.Lock()
	pending := len(ds.pending)
	ds.pendMu.Unlock()
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	snap := ds.snap
	info := DatasetInfo{
		Name:    ds.name,
		Upper:   snap.g.NumUpper(),
		Lower:   snap.g.NumLower(),
		Edges:   snap.g.NumEdges(),
		Version: snap.version,
		Pending: pending,
		Status:  ds.status,
	}
	// During a run report the running algorithm; otherwise attribute
	// the cached result to the algorithm that actually produced it.
	if ds.status == StatusDecomposing {
		info.Algo = ds.runAlgo.String()
	} else if snap.res != nil {
		info.Algo = snap.algo.String()
	}
	if snap.res != nil {
		info.MaxPhi = snap.res.MaxPhi
		info.Levels = len(snap.idx.Levels())
		info.TotalTime = snap.res.Metrics.TotalTime
	}
	if ds.err != nil {
		info.Err = ds.err.Error()
	}
	if j := ds.jobs.latest(); j != nil {
		info.JobID = j.id
	}
	info.Mem = snap.memory()
	return info
}

// memory sizes the snapshot's resident structures. Safe on a serving
// snapshot: every SizeBytes walks immutable arrays, so the figures are
// stable for the snapshot's whole lifetime.
func (s *snapshot) memory() MemoryStats {
	mem := MemoryStats{GraphBytes: s.g.SizeBytes()}
	if s.res != nil {
		mem.ResultBytes = s.res.SizeBytes()
	}
	if s.idx != nil {
		mem.IndexBytes = s.idx.SizeBytes()
	}
	mem.TipBytes = s.ana.tipBytes()
	mem.TotalBytes = mem.GraphBytes + mem.ResultBytes + mem.IndexBytes + mem.TipBytes
	if m := s.g.NumEdges(); m > 0 {
		mem.BytesPerEdge = float64(mem.TotalBytes) / float64(m)
	}
	return mem
}

// MutationLog returns the dataset's applied-batch history, oldest
// first. Retention is a fixed-capacity ring (SetMutationLogCap,
// default DefaultMutationLogCap): once full, every applied batch
// evicts the oldest record, so the result holds the most recent
// min(cap, applied) epochs and the first record's Epoch exceeds 1 once
// eviction has started. Epoch numbers are contiguous and 1-based over
// the dataset's lifetime; no-op batches produce no record.
func (e *Engine) MutationLog(name string) ([]MutationRecord, error) {
	ds, err := e.dataset(name)
	if err != nil {
		return nil, err
	}
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.log.records(), nil
}

// StartDecompose launches the decomposition of a dataset in the
// background and returns the id of the started job immediately. The
// job's live progress (stage, edges finalized) is readable via Job
// while the run proceeds. ctx cancellation aborts the run (it is
// mapped onto the core Cancel channel, so it propagates into the
// peeling loops). A dataset holds at most one in-flight decomposition;
// a second request returns ErrBusy. A finished (ready or failed)
// dataset may be re-decomposed, e.g. with a different algorithm; it
// keeps serving its previous snapshot meanwhile.
func (e *Engine) StartDecompose(ctx context.Context, name string, opt Options) (int64, error) {
	ds, err := e.dataset(name)
	if err != nil {
		return 0, err
	}
	if err := ds.recoveringErr(); err != nil {
		return 0, err
	}
	if e.isClosed() {
		return 0, ErrClosed
	}
	runCtx, cancel := context.WithCancel(ctx)

	j := &job{id: e.jobSeq.Add(1), dataset: name, algo: opt.Algorithm, started: time.Now()}
	ds.mu.Lock()
	if ds.status == StatusDecomposing {
		ds.mu.Unlock()
		cancel()
		return 0, fmt.Errorf("%w: %q", ErrBusy, name)
	}
	ds.status = StatusDecomposing
	ds.runAlgo = opt.Algorithm
	ds.err = nil
	ds.cancel = cancel
	done := make(chan struct{})
	ds.done = done
	ds.jobs.add(j)
	ds.mu.Unlock()

	go func() {
		defer cancel()
		// Serialise against mutation application: the snapshot we
		// decompose stays current until we install its successor.
		ds.workMu.Lock()
		defer ds.workMu.Unlock()
		ds.mu.RLock()
		snap := ds.snap
		ds.mu.RUnlock()
		res, err := core.Decompose(snap.g, core.Options{
			Algorithm: opt.Algorithm,
			Tau:       opt.Tau,
			Workers:   opt.Workers,
			Ranges:    opt.Ranges,
			Cancel:    runCtx.Done(),
			Progress:  j.observe,
		})
		var idx *community.Index
		if err == nil {
			// The hierarchy index partitions cleanly across workers
			// (byte-identical to the serial build), so a fresh snapshot
			// becomes servable sooner on multi-core hosts.
			idx = community.NewIndexParallel(snap.g, res.Phi, opt.Workers)
		} else if errors.Is(err, core.ErrCancelled) && runCtx.Err() != nil {
			err = runCtx.Err()
		}
		var newSnap *snapshot
		if err == nil {
			newSnap = &snapshot{version: snap.version, g: snap.g, res: res, idx: idx, algo: opt.Algorithm, cache: e.newCache(), ana: newAnalytics()}
			if opt.Tip {
				// Eager analytics: materialise both layers' tip state into
				// the fresh snapshot before it starts serving, so tip
				// queries never pay a first-request computation (and work
				// even with lazy analytics disabled).
				for i, upper := range []bool{true, false} {
					newSnap.ana.tipRes[i].Store(tip.DecomposeOptions(snap.g, upper, tip.Options{Progress: j.observe}))
				}
			}
			// Pre-warm before installation: the hook fills the fresh
			// snapshot's cache while the previous snapshot still serves,
			// so the new version starts taking traffic with its hot
			// entries already encoded.
			e.firePublish(ds.name, newSnap)
		}
		// Latch the job's terminal state before the dataset flips to
		// ready/failed: a poller that sees the new status cannot then
		// read the job as still running.
		j.finish(err)
		ds.mu.Lock()
		if err != nil {
			// A failed re-decomposition must not brick a dataset that
			// already holds a valid cached result: keep serving it.
			if ds.snap.res != nil {
				ds.status = StatusReady
			} else {
				ds.status = StatusFailed
			}
			ds.err = err
		} else {
			ds.status = StatusReady
			ds.snap = newSnap
			ds.workers = opt.Workers
			ds.ranges = opt.Ranges
			ds.err = nil
		}
		ds.cancel = nil
		ds.mu.Unlock()
		// Persist the fresh decomposition (we still hold workMu): a
		// restart then recovers it instead of re-decomposing. Failure
		// costs durability of the result, not the result itself.
		if err == nil && ds.dur != nil {
			if cerr := ds.dur.checkpoint(newSnap, opt.Workers, opt.Ranges); cerr != nil {
				log.Printf("engine: durable snapshot of %q after decompose failed: %v", ds.name, cerr)
			}
		}
		close(done)
	}()
	return j.id, nil
}

// Wait blocks until the dataset's in-flight decomposition (if any)
// finishes or ctx is cancelled, then reports the error of the last
// finished run (nil when it succeeded or no run ever started). Note a
// failed re-decomposition reports its error here while the dataset
// keeps serving the previous result.
func (e *Engine) Wait(ctx context.Context, name string) error {
	ds, err := e.dataset(name)
	if err != nil {
		return err
	}
	ds.mu.RLock()
	done := ds.done
	ds.mu.RUnlock()
	if done != nil {
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.err
}

// Decompose is StartDecompose + Wait: it blocks until the dataset is
// ready or the run fails.
func (e *Engine) Decompose(ctx context.Context, name string, opt Options) error {
	if _, err := e.StartDecompose(ctx, name, opt); err != nil {
		return err
	}
	return e.Wait(ctx, name)
}

// Mutate stages a batch of edge mutations against a dataset. Staged
// requests are coalesced and applied by a single background applier
// per dataset; with Wait set, the call blocks until the request's
// batch is part of the served snapshot and reports the resulting
// version and maintenance statistics. The dataset keeps serving its
// previous snapshot (version N) while version N+1 is maintained.
func (e *Engine) Mutate(ctx context.Context, name string, req MutateRequest) (MutateResult, error) {
	ds, err := e.dataset(name)
	if err != nil {
		return MutateResult{}, err
	}
	if err := ds.recoveringErr(); err != nil {
		return MutateResult{}, err
	}
	if e.isClosed() {
		return MutateResult{}, ErrClosed
	}
	// Reject out-of-range pairs up front: requests are coalesced into
	// one delta, so a poisoned pair must not be allowed to fail other
	// clients' batches.
	checkPairs := func(pairs [][2]int) error {
		for _, p := range pairs {
			if p[0] < 0 || p[1] < 0 || p[0] >= bigraph.MaxLayerSize || p[1] >= bigraph.MaxLayerSize {
				return fmt.Errorf("engine: vertex out of range in mutation (%d, %d)", p[0], p[1])
			}
		}
		return nil
	}
	if err := checkPairs(req.Insert); err != nil {
		return MutateResult{}, err
	}
	if err := checkPairs(req.Delete); err != nil {
		return MutateResult{}, err
	}
	op := &mutOp{req: req, done: make(chan mutOutcome, 1)}
	ds.pendMu.Lock()
	// Re-check under pendMu: Shutdown fences on this mutex after
	// closing, so an op staged here is either covered by Shutdown's
	// drain (Add happens before its Wait) or rejected.
	if e.isClosed() {
		ds.pendMu.Unlock()
		return MutateResult{}, ErrClosed
	}
	ds.pending = append(ds.pending, op)
	pending := len(ds.pending)
	if !ds.applying {
		ds.applying = true
		ds.appliers.Add(1)
		go func() {
			defer ds.appliers.Done()
			ds.applyLoop(e)
		}()
	}
	ds.pendMu.Unlock()

	if !req.Wait {
		ds.mu.RLock()
		v := ds.snap.version
		ds.mu.RUnlock()
		return MutateResult{Version: v, Pending: pending}, nil
	}
	select {
	case out := <-op.done:
		return out.info, out.err
	case <-ctx.Done():
		return MutateResult{}, ctx.Err()
	}
}

// applyLoop drains the pending mutation queue one epoch at a time
// until the queue is empty, then exits (a later Mutate restarts it).
// Epochs pipeline naturally: Mutate stages requests for epoch N+1
// under pendMu the whole time epoch N computes (staging never touches
// workMu), and queries read the previous snapshot lock-free until the
// publish phase swaps its successor in.
func (ds *dataset) applyLoop(e *Engine) {
	for {
		ds.pendMu.Lock()
		batch := ds.pending
		ds.pending = nil
		if len(batch) == 0 {
			ds.applying = false
			ds.pendMu.Unlock()
			return
		}
		ds.pendMu.Unlock()
		ds.applyBatch(e, batch)
	}
}

// epoch is one pass of the applier pipeline: a coalesced batch of
// staged mutation requests carried through explicit phases on the
// dataset's single applier goroutine —
//
//	stage    coalesce the requests into one graph delta and apply it
//	maintain parallel butterfly delta counting + parallel re-peel of
//	         the affected closure (core.Maintain at the dataset's
//	         worker fan-out)
//	index    parallel community-index update
//	publish  cache pre-warm, then the atomic snapshot swap
//
// Only publish takes the dataset write lock, and only for the swap:
// for the whole computing span of an epoch, reads serve the previous
// snapshot untouched, and new requests stage the next epoch's batch.
type epoch struct {
	eng   *Engine
	ds    *dataset
	batch []*mutOp
	start time.Time

	base    *snapshot // snapshot the epoch builds on
	next    *snapshot // successor; published only by publish()
	rm      *bigraph.Remap
	stats   *core.MaintainStats
	workers int
	ranges  int

	rec  MutationRecord
	info MutateResult
}

func newEpoch(e *Engine, ds *dataset, batch []*mutOp) *epoch {
	ep := &epoch{eng: e, ds: ds, batch: batch, start: time.Now()}
	ds.mu.RLock()
	ep.base = ds.snap
	ep.workers = ds.workers
	ep.ranges = ds.ranges
	ds.mu.RUnlock()
	return ep
}

// stage coalesces the batch into one graph delta and applies it,
// producing the next snapshot shell (graph only). It returns false —
// with the no-op result filled in — when the coalesced delta is empty.
//
// It writes fields of ep.next, legally: the snapshot is freshly built
// here and unpublished until publish()'s swap.
//
//bitlint:owner
func (ep *epoch) stage() (bool, error) {
	t0 := time.Now()
	delta := bigraph.NewDelta(ep.base.g)
	for _, op := range ep.batch {
		for _, p := range op.req.Insert {
			delta.Insert(p[0], p[1])
		}
		for _, p := range op.req.Delete {
			delta.Delete(p[0], p[1])
		}
	}
	if delta.Empty() {
		ep.info = MutateResult{Version: ep.base.version, Applied: false, Duration: time.Since(ep.start)}
		return false, nil
	}
	g2, rm, err := delta.Apply()
	if err != nil {
		return false, err
	}
	ep.rm = rm
	ep.next = &snapshot{version: g2.Version(), g: g2, algo: ep.base.algo, cache: ep.eng.newCache(), ana: newAnalytics()}
	ep.rec.StageTime = time.Since(t0)
	ep.info = MutateResult{
		Version:  g2.Version(),
		Applied:  true,
		Inserted: len(rm.Inserted),
		Deleted:  len(rm.Deleted),
	}
	return true, nil
}

// maintain carries the decomposition across the staged delta with
// core.Maintain at the dataset's worker fan-out — internally the
// parallel delta-count and parallel re-peel phases, whose split is
// surfaced in the record's DeltaTime/PeelTime.
//
//bitlint:owner
func (ep *epoch) maintain() error {
	res2, stats, err := core.Maintain(ep.base.g, ep.base.res, ep.next.g, ep.rm, core.MaintainOptions{
		Algorithm: ep.base.algo,
		Workers:   ep.workers,
		Ranges:    ep.ranges,
		Cancel:    ep.eng.closed,
	})
	if err != nil {
		return err
	}
	ep.next.res = res2
	ep.stats = stats
	ep.rec.DeltaTime = stats.DeltaTime
	ep.rec.PeelTime = stats.ClosureTime + stats.PeelTime
	ep.info.Maintained = true
	ep.info.FellBack = stats.FellBack
	ep.info.Candidates = stats.Candidates
	ep.info.ChangedPhi = stats.ChangedPhi
	return nil
}

// index updates the community index onto the maintained decomposition
// (parallel, bounded by the maintenance's changed-level ceiling).
//
//bitlint:owner
func (ep *epoch) index() {
	t0 := time.Now()
	ep.next.idx = community.UpdateIndexParallel(ep.base.idx, ep.next.g, ep.next.res.Phi, ep.rm, ep.stats.MaxChangedLevel, ep.workers)
	ep.rec.IndexTime = time.Since(t0)
}

// publish makes the epoch's snapshot the served one: pre-warm the
// fresh cache while the previous snapshot still answers, then swap
// atomically under the write lock and append the epoch's record to the
// mutation log ring.
//
//bitlint:owner
func (ep *epoch) publish() {
	t0 := time.Now()
	if ep.next.res != nil {
		// Pre-warm before the swap: queries keep answering from the old
		// snapshot while the new one's cache is primed, and the first
		// request against the new version can already hit.
		ep.eng.firePublish(ep.ds.name, ep.next)
	}
	ds := ep.ds
	ds.mu.Lock()
	ds.snap = ep.next
	ds.epochs++
	ep.rec.Epoch = ds.epochs
	ep.rec.Version = ep.info.Version
	ep.rec.Requests = len(ep.batch)
	ep.rec.Inserted = ep.info.Inserted
	ep.rec.Deleted = ep.info.Deleted
	ep.rec.Maintained = ep.info.Maintained
	ep.rec.FellBack = ep.info.FellBack
	ep.rec.Candidates = ep.info.Candidates
	ep.rec.ChangedPhi = ep.info.ChangedPhi
	ep.rec.Workers = ep.workers
	ep.rec.PublishTime = time.Since(t0)
	ep.rec.Duration = time.Since(ep.start)
	ep.info.Duration = ep.rec.Duration
	ds.log.add(ep.rec)
	ds.mu.Unlock()
}

// applyBatch runs one epoch: stage -> maintain -> index -> log ->
// publish. Failures before publish keep the previous snapshot serving
// and report the error to every waiter of the batch.
func (ds *dataset) applyBatch(e *Engine, batch []*mutOp) {
	ds.workMu.Lock()
	ep := newEpoch(e, ds, batch)
	finish := func(err error) {
		ds.workMu.Unlock()
		for _, op := range batch {
			op.done <- mutOutcome{info: ep.info, err: err}
		}
	}

	staged, err := ep.stage()
	if err != nil || !staged {
		finish(err)
		return
	}
	if ep.base.res != nil {
		if err := ep.maintain(); err != nil {
			// Keep serving the old snapshot; the mutation is dropped.
			ep.info = MutateResult{}
			finish(err)
			return
		}
		ep.index()
	}
	// Write-ahead: the batch becomes durable after all fallible compute
	// succeeded and immediately before it publishes — an fsynced record
	// whose epoch then failed would poison replay, because the next
	// successful batch reuses the same version number. A logging
	// failure keeps the previous snapshot serving and fails the
	// waiters: nothing is acknowledged that is not durable.
	if ds.dur != nil {
		if err := ds.dur.logBatch(ep.info.Version, batch); err != nil {
			ep.info = MutateResult{}
			finish(fmt.Errorf("engine: write-ahead log: %w", err))
			return
		}
	}
	ep.publish()
	if ds.dur != nil {
		ds.dur.maybeCheckpoint(ds.name, ep.next, ep.workers, ep.ranges)
	}
	finish(nil)
}

// Shutdown cancels all in-flight decompositions and pending
// maintenance work, then waits (bounded by ctx) until every dataset's
// background work has drained. After Shutdown the engine rejects new
// decompositions and mutations with ErrClosed; queries keep working.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.closeOnce.Do(func() { close(e.closed) })

	e.mu.RLock()
	all := make([]*dataset, 0, len(e.datasets))
	for _, ds := range e.datasets {
		all = append(all, ds)
	}
	e.mu.RUnlock()

	// Fence the mutation queues: Mutate stages (and Add()s its applier)
	// under pendMu and re-checks the closed flag there, so once this
	// loop passes, every staged applier is visible to the Wait below
	// and no further ones can start.
	for _, ds := range all {
		ds.pendMu.Lock()
		// The lock acquisition itself is the fence; the flag read only
		// keeps the critical section non-empty.
		_ = ds.applying
		ds.pendMu.Unlock()
	}

	var dones []chan struct{}
	for _, ds := range all {
		ds.mu.RLock()
		cancel, done := ds.cancel, ds.done
		ds.mu.RUnlock()
		if cancel != nil {
			cancel()
		}
		if done != nil {
			dones = append(dones, done)
		}
	}

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for _, done := range dones {
			<-done
		}
		for _, ds := range all {
			ds.appliers.Wait()
		}
		// Fold any WAL tail into a final snapshot (so a graceful restart
		// cold-starts without replay), then release the durable file
		// handles. The checkpoint is an optimisation, not a durability
		// requirement — every logged batch was fsynced at append time —
		// so its failure is logged and the WAL carries the tail.
		for _, ds := range all {
			ds.workMu.Lock()
			if ds.dur != nil && ds.dur.since > 0 {
				ds.mu.RLock()
				snap, workers, ranges := ds.snap, ds.workers, ds.ranges
				ds.mu.RUnlock()
				if err := ds.dur.checkpoint(snap, workers, ranges); err != nil {
					log.Printf("engine: final snapshot of %q failed (WAL retains the tail): %v", ds.name, err)
				}
			}
			ds.closeDurable()
			ds.workMu.Unlock()
		}
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// View is an immutable query handle onto one snapshot of a dataset:
// every answer obtained through one View is consistent with the single
// graph version it reports, regardless of concurrent mutations.
type View struct {
	name string
	snap *snapshot
	// eng/ds are optional backrefs used by lazily computed analytics
	// for job registration and engine-level limits; they are nil on
	// publish-hook views, which run job-less with default limits.
	eng *Engine
	ds  *dataset
}

// View returns a handle onto the dataset's current snapshot.
func (e *Engine) View(name string) (*View, error) {
	ds, err := e.dataset(name)
	if err != nil {
		return nil, err
	}
	ds.mu.RLock()
	snap := ds.snap
	recovering := ds.recovering
	ds.mu.RUnlock()
	if recovering {
		return nil, fmt.Errorf("%w: %q", ErrRecovering, name)
	}
	return &View{name: ds.name, snap: snap, eng: e, ds: ds}, nil
}

// Version returns the mutation version of the viewed snapshot.
func (v *View) Version() int64 { return v.snap.version }

// Cached returns the response bytes stored under key for this view's
// snapshot, running fill on a miss and memoising its result. Because
// the cache is owned by the snapshot, a cached response can never
// outlive its version: a mutation installs a successor snapshot with a
// fresh cache and this one becomes garbage. Concurrent misses on one
// key are deduplicated — exactly one caller computes, the rest share.
// The second result reports a cache hit. The returned bytes are shared
// and must not be modified. With caching disabled, fill runs every
// time. fill errors are returned but never cached.
func (v *View) Cached(key []byte, fill func() ([]byte, error)) ([]byte, bool, error) {
	if c := v.snap.cache; c != nil {
		return c.get(key, fill)
	}
	data, err := fill()
	return data, false, err
}

// CacheStats reports the snapshot cache's filled entry count and total
// payload bytes (zeroes when caching is disabled).
func (v *View) CacheStats() (entries int, bytes int64) {
	if c := v.snap.cache; c != nil {
		return c.stats()
	}
	return 0, 0
}

// Decomposed reports whether the viewed snapshot carries a
// decomposition.
func (v *View) Decomposed() bool { return v.snap.res != nil }

// ready returns the snapshot's result and index or ErrNotDecomposed.
func (v *View) ready() (*core.Result, *community.Index, error) {
	if v.snap.res == nil || v.snap.idx == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotDecomposed, v.name)
	}
	return v.snap.res, v.snap.idx, nil
}

// globalUpper converts a layer-local upper index to a global vertex id.
func globalUpper(g *bigraph.Graph, u int) (int32, bool) {
	if u < 0 || u >= g.NumUpper() {
		return 0, false
	}
	return int32(g.NumLower() + u), true
}

// edgeID resolves a layer-local (upper, lower) pair to an edge id.
func edgeID(g *bigraph.Graph, u, v int) (int32, error) {
	gu, ok := globalUpper(g, u)
	if !ok || v < 0 || v >= g.NumLower() {
		return -1, fmt.Errorf("%w: (%d, %d)", ErrNoEdge, u, v)
	}
	e := g.EdgeID(gu, int32(v))
	if e < 0 {
		return -1, fmt.Errorf("%w: (%d, %d)", ErrNoEdge, u, v)
	}
	return e, nil
}

// Phi returns the bitruss number of the edge between upper-layer u and
// lower-layer v.
func (v *View) Phi(u, w int) (int64, error) {
	res, _, err := v.ready()
	if err != nil {
		return 0, err
	}
	eid, err := edgeID(v.snap.g, u, w)
	if err != nil {
		return 0, err
	}
	return res.Phi[eid], nil
}

// Support returns the butterfly support of the edge (u, v): from the
// snapshot's maintained supports when decomposed, computed on demand
// otherwise (so it works as soon as the graph is loaded).
func (v *View) Support(u, w int) (int64, error) {
	eid, err := edgeID(v.snap.g, u, w)
	if err != nil {
		return 0, err
	}
	if v.snap.res != nil && v.snap.res.Sup != nil {
		return v.snap.res.Sup[eid], nil
	}
	return butterfly.EdgeSupport(v.snap.g, eid), nil
}

// Levels returns the distinct bitruss numbers, ascending.
func (v *View) Levels() ([]int64, error) {
	_, idx, err := v.ready()
	if err != nil {
		return nil, err
	}
	return idx.Levels(), nil
}

// CommunitiesPage returns the communities of the k-bitruss ranked
// largest-first, restricted to the half-open rank window
// [offset, offset+limit) — the paging primitive behind the v1
// /communities endpoint. A negative limit means "to the end". The
// total component count is reported alongside so callers can compute
// whether another page exists; both come from this view's single
// snapshot, so a page walk pinned to one View is cut-free.
func (v *View) CommunitiesPage(k int64, offset, limit int) ([]Community, int, error) {
	_, idx, err := v.ready()
	if err != nil {
		return nil, 0, err
	}
	cs := idx.CommunitiesRange(k, offset, limit)
	out := make([]Community, len(cs))
	for i := range cs {
		out[i] = toCommunity(v.snap.g, &cs[i])
	}
	return out, idx.NumCommunities(k), nil
}

// CommunityOf returns the community of the k-bitruss containing the
// given layer-local vertex, or ok=false when the vertex has no edge at
// that level.
func (v *View) CommunityOf(layer Layer, vertex int, k int64) (Community, bool, error) {
	_, idx, err := v.ready()
	if err != nil {
		return Community{}, false, err
	}
	var global int32
	switch layer {
	case UpperLayer:
		gu, ok := globalUpper(v.snap.g, vertex)
		if !ok {
			return Community{}, false, nil
		}
		global = gu
	case LowerLayer:
		if vertex < 0 || vertex >= v.snap.g.NumLower() {
			return Community{}, false, nil
		}
		global = int32(vertex)
	default:
		return Community{}, false, fmt.Errorf("engine: unknown layer %d", int(layer))
	}
	c, ok := idx.CommunityOfVertex(global, k)
	if !ok {
		return Community{}, false, nil
	}
	return toCommunity(v.snap.g, &c), true, nil
}

// KBitrussEdges returns the edges of the k-bitruss as layer-local
// (upper, lower, phi) triples, ascending by edge id.
func (v *View) KBitrussEdges(k int64) ([][3]int64, error) {
	res, idx, err := v.ready()
	if err != nil {
		return nil, err
	}
	ids := idx.KBitrussEdgeIDs(k)
	nl := int64(v.snap.g.NumLower())
	out := make([][3]int64, len(ids))
	for i, eid := range ids {
		ed := v.snap.g.Edge(eid)
		out[i] = [3]int64{int64(ed.U) - nl, int64(ed.V), res.Phi[eid]}
	}
	return out, nil
}

// BatchKind selects the lookup performed by one BatchOp.
type BatchKind int

const (
	// BatchPhi looks up the bitruss number of edge (U, V).
	BatchPhi BatchKind = iota
	// BatchSupport looks up the butterfly support of edge (U, V).
	BatchSupport
	// BatchCommunityOf resolves the community containing (Layer, Vertex)
	// at level K.
	BatchCommunityOf
)

// BatchOp is one lookup of a batch query. The fields used depend on
// Kind: U/V for edge lookups, Layer/Vertex/K for community resolution.
type BatchOp struct {
	Kind   BatchKind
	U, V   int
	Layer  Layer
	Vertex int
	K      int64
}

// BatchAnswer is the outcome of one BatchOp. Exactly one of the result
// fields is meaningful, selected by the op's Kind; Err carries
// per-item failures (absent edges, vertices outside the k-bitruss,
// querying φ before a decomposition) without failing the batch.
type BatchAnswer struct {
	Value     int64     // phi or support
	Community Community // community_of result
	Err       error
}

// Batch answers a mixed sequence of φ/support/community-of lookups
// against this view's single snapshot: every answer is consistent with
// the one version the View reports, which N individual queries issued
// over HTTP cannot guarantee under concurrent mutations. Item failures
// are reported per answer, never as a batch failure.
func (v *View) Batch(ops []BatchOp) []BatchAnswer {
	out := make([]BatchAnswer, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case BatchPhi:
			out[i].Value, out[i].Err = v.Phi(op.U, op.V)
		case BatchSupport:
			out[i].Value, out[i].Err = v.Support(op.U, op.V)
		case BatchCommunityOf:
			c, ok, err := v.CommunityOf(op.Layer, op.Vertex, op.K)
			switch {
			case err != nil:
				out[i].Err = err
			case !ok:
				out[i].Err = fmt.Errorf("%w: vertex %d has no community at level %d", ErrNoCommunity, op.Vertex, op.K)
			default:
				out[i].Community = c
			}
		default:
			out[i].Err = fmt.Errorf("engine: unknown batch op kind %d", int(op.Kind))
		}
	}
	return out
}

// Community is a k-bitruss connected component with layer-local vertex
// indices, ready for serialisation.
type Community struct {
	K     int64 `json:"k"`
	Size  int   `json:"size"` // number of member edges
	Upper []int `json:"upper"`
	Lower []int `json:"lower"`
	Edges []int `json:"edges"`
}

func toCommunity(g *bigraph.Graph, c *community.Community) Community {
	nl := g.NumLower()
	out := Community{K: c.K, Size: len(c.Edges)}
	out.Upper = make([]int, len(c.Upper))
	for i, u := range c.Upper {
		out.Upper[i] = int(u) - nl
	}
	out.Lower = make([]int, len(c.Lower))
	for i, v := range c.Lower {
		out.Lower[i] = int(v)
	}
	out.Edges = make([]int, len(c.Edges))
	for i, e := range c.Edges {
		out.Edges[i] = int(e)
	}
	return out
}

// Layer selects the side of the bipartition in vertex-addressed
// queries.
type Layer int

const (
	UpperLayer Layer = iota
	LowerLayer
)
