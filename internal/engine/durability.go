package engine

import (
	"context"
	"errors"
	"fmt"
	iofs "io/fs"
	"log"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bigraph"
	"repro/internal/community"
	"repro/internal/core"
	dsnap "repro/internal/snapshot"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// This file is the engine half of the durability subsystem
// (internal/wal + internal/snapshot): per-dataset write-ahead logging
// of every applied mutation batch (fsynced before the batch's snapshot
// publishes), periodic durable snapshots that truncate the log they
// cover, and cold-start recovery — load the newest valid snapshot,
// replay the WAL suffix through core.Maintain, serve again.
//
// Layout under DurabilityOptions.Dir: one directory per dataset
// (name percent-escaped), managed by snapshot.Store — numbered
// snapshot generations plus the WAL segment covering the batches
// applied after each.

// DefaultSnapshotEvery is the default number of applied mutation
// batches between durable snapshots.
const DefaultSnapshotEvery = 32

// DurabilityOptions configures EnableDurability.
type DurabilityOptions struct {
	// Dir is the root data directory; one subdirectory per dataset.
	Dir string
	// SnapshotEvery is the number of applied mutation batches between
	// durable snapshots (<= 0 selects DefaultSnapshotEvery). Snapshots
	// are also taken on every decomposition completion and at the end
	// of recovery.
	SnapshotEvery int
	// FS overrides the filesystem (fault-injection tests); nil selects
	// the operating system.
	FS vfs.FS
}

// durConfig is the engine-wide durability configuration.
type durConfig struct {
	dir   string
	every int
	fs    vfs.FS
}

// durableState is one dataset's durable machinery. It is touched only
// under the dataset's workMu (every snapshot-producing code path holds
// it), so it needs no lock of its own.
type durableState struct {
	fs    vfs.FS
	store *dsnap.Store
	wal   *wal.Log // segment covering batches applied after generation seq
	seq   uint64   // current snapshot generation
	since int      // batches applied since the last durable snapshot
	every int
}

// EnableDurability switches the engine to durable mode: every
// registered dataset gets a write-ahead log and periodic snapshots
// under opt.Dir, and Recover can rebuild the registry from it. It must
// be called before any dataset is registered.
func (e *Engine) EnableDurability(opt DurabilityOptions) error {
	if opt.Dir == "" {
		return fmt.Errorf("engine: durability requires a data directory")
	}
	every := opt.SnapshotEvery
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = vfs.OS()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.datasets) > 0 {
		return fmt.Errorf("engine: durability must be enabled before datasets are registered")
	}
	e.dur = &durConfig{dir: opt.Dir, every: every, fs: fsys}
	return nil
}

// datasetDir maps a dataset name onto its directory under the data
// root. Names are percent-escaped so any registry name round-trips
// through one path component.
func (c *durConfig) datasetDir(name string) string {
	return filepath.Join(c.dir, encodeDatasetName(name))
}

// encodeDatasetName escapes a dataset name into a safe path component:
// ASCII letters, digits, '.', '_' and '-' pass through (except a
// leading '.'), everything else becomes %XX per byte.
func encodeDatasetName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		ch := name[i]
		safe := ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch >= '0' && ch <= '9' ||
			ch == '_' || ch == '-' || (ch == '.' && i > 0)
		if safe {
			b.WriteByte(ch)
		} else {
			fmt.Fprintf(&b, "%%%02X", ch)
		}
	}
	return b.String()
}

// DecodeDatasetName inverts the percent-escaping a dataset name
// undergoes to become its directory under the data root. Exported for
// tooling that inspects a data directory offline (bgstat -data-dir).
func DecodeDatasetName(enc string) (string, bool) { return decodeDatasetName(enc) }

// decodeDatasetName inverts encodeDatasetName; ok is false for a
// component that is not a valid encoding.
func decodeDatasetName(enc string) (string, bool) {
	var b strings.Builder
	for i := 0; i < len(enc); i++ {
		ch := enc[i]
		if ch != '%' {
			b.WriteByte(ch)
			continue
		}
		if i+2 >= len(enc) {
			return "", false
		}
		var v int
		if _, err := fmt.Sscanf(enc[i+1:i+3], "%02X", &v); err != nil {
			return "", false
		}
		b.WriteByte(byte(v))
		i += 2
	}
	if b.Len() == 0 {
		return "", false
	}
	return b.String(), true
}

// setupDurable initialises a freshly registered dataset's durable
// state: its store directory, an initial graph-only snapshot (so every
// registered dataset is recoverable from its first moment), and the
// WAL segment covering mutations applied after it. Called by Register
// with the dataset's workMu held.
func (e *Engine) setupDurable(ds *dataset, g *bigraph.Graph) error {
	st, err := dsnap.Open(e.dur.fs, e.dur.datasetDir(ds.name))
	if err != nil {
		return err
	}
	d := &durableState{fs: e.dur.fs, store: st, every: e.dur.every, seq: 1}
	if err := st.Save(d.seq, &dsnap.Data{Graph: g}); err != nil {
		return err
	}
	if d.wal, err = wal.Create(d.fs, st.WALPath(d.seq)); err != nil {
		return err
	}
	ds.dur = d
	return nil
}

// walRecord encodes a coalesced batch as its WAL record: the version
// the batch produced and the edge operations in the exact order
// epoch.stage feeds them into the graph delta (inserts before deletes
// within one request, requests in submission order) — replay rebuilds
// the identical delta, so maintenance reproduces the identical state.
func walRecord(version int64, batch []*mutOp) wal.Record {
	rec := wal.Record{Version: version}
	n := 0
	for _, op := range batch {
		n += len(op.req.Insert) + len(op.req.Delete)
	}
	rec.Ops = make([]wal.Op, 0, n)
	for _, op := range batch {
		for _, p := range op.req.Insert {
			rec.Ops = append(rec.Ops, wal.Op{U: uint32(p[0]), V: uint32(p[1])})
		}
		for _, p := range op.req.Delete {
			rec.Ops = append(rec.Ops, wal.Op{Del: true, U: uint32(p[0]), V: uint32(p[1])})
		}
	}
	return rec
}

// logBatch makes one applied batch durable before it publishes. An
// error means the batch must not be acknowledged: the caller keeps
// serving the previous snapshot and fails the waiters.
func (d *durableState) logBatch(version int64, batch []*mutOp) error {
	return d.wal.Append(walRecord(version, batch))
}

// durableData projects a serving snapshot onto its durable form.
func durableData(s *snapshot, workers, ranges int) *dsnap.Data {
	data := &dsnap.Data{Graph: s.g}
	if s.res != nil {
		data.HasResult = true
		data.Algo = s.algo.String()
		data.Workers = workers
		data.Ranges = ranges
		data.Phi = s.res.Phi
		data.Sup = s.res.Sup
	}
	return data
}

// checkpoint writes s as the next snapshot generation and rotates the
// WAL: a fresh segment for the new generation is created first (a
// crash in between leaves an empty extra segment, which replays as
// nothing), then the snapshot lands atomically and the store prunes
// the generations and segments it obsoletes. Called under workMu.
func (d *durableState) checkpoint(s *snapshot, workers, ranges int) error {
	newSeq := d.seq + 1
	nl, err := wal.Create(d.fs, d.store.WALPath(newSeq))
	if err != nil {
		return err
	}
	if err := d.store.Save(newSeq, durableData(s, workers, ranges)); err != nil {
		nl.Close()
		_ = d.fs.Remove(d.store.WALPath(newSeq))
		return err
	}
	old := d.wal
	d.wal, d.seq, d.since = nl, newSeq, 0
	if old != nil {
		old.Close()
	}
	return nil
}

// maybeCheckpoint counts one applied batch and checkpoints when the
// configured interval is reached. Failures are logged and retried on
// the next batch: the WAL still holds everything since the last good
// snapshot, so durability degrades in replay time, not in data.
func (d *durableState) maybeCheckpoint(name string, s *snapshot, workers, ranges int) {
	d.since++
	if d.since < d.every {
		return
	}
	if err := d.checkpoint(s, workers, ranges); err != nil {
		log.Printf("engine: durable snapshot of %q failed (will retry): %v", name, err)
	}
}

// closeDurable releases the dataset's durable file handles. Called
// under workMu.
func (ds *dataset) closeDurable() {
	if ds.dur != nil && ds.dur.wal != nil {
		_ = ds.dur.wal.Close()
	}
}

// Recover scans the data directory and rebuilds every persisted
// dataset: each is registered immediately in StatusRecovering (queries
// and mutations against it fail with ErrRecovering until it is back)
// and recovered concurrently in the background — newest valid snapshot
// first, then the WAL suffix replayed through the incremental
// maintenance path. It returns the names found; Wait blocks until a
// given dataset's recovery finishes and reports its error. A dataset
// whose durable state is unrecoverable (no valid snapshot) is
// unregistered again after its recovery fails.
func (e *Engine) Recover(ctx context.Context) ([]string, error) {
	e.mu.RLock()
	cfg := e.dur
	e.mu.RUnlock()
	if cfg == nil {
		return nil, fmt.Errorf("engine: durability not enabled")
	}
	if e.isClosed() {
		return nil, ErrClosed
	}
	entries, err := cfg.fs.ReadDir(cfg.dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, nil // nothing persisted yet
		}
		return nil, err
	}
	var names []string
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		name, ok := decodeDatasetName(ent.Name())
		if !ok {
			log.Printf("engine: ignoring undecodable data directory %q", ent.Name())
			continue
		}
		ds, err := e.registerRecovering(name)
		if err != nil {
			log.Printf("engine: skipping recovery of %q: %v", name, err)
			continue
		}
		names = append(names, name)
		go e.recoverDataset(ctx, ds)
	}
	return names, nil
}

// registerRecovering installs a placeholder dataset in
// StatusRecovering, its workMu held by the recovery goroutine's cause
// (released when recovery finishes).
func (e *Engine) registerRecovering(name string) (*dataset, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.datasets[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	empty, err := bigraph.FromEdges(nil)
	if err != nil {
		return nil, err
	}
	ds := &dataset{
		name:       name,
		snap:       &snapshot{g: empty, ana: newAnalytics()},
		status:     StatusRecovering,
		recovering: true,
		done:       make(chan struct{}),
		log:        newMutLog(int(e.mutLogCap.Load())),
		jobs:       newJobLog(DefaultJobLogCap),
	}
	e.datasets[name] = ds
	return ds, nil
}

// recoverDataset rebuilds one dataset from its durable state on a
// background goroutine.
func (e *Engine) recoverDataset(ctx context.Context, ds *dataset) {
	ds.workMu.Lock()
	err := e.recoverLocked(ctx, ds)
	ds.workMu.Unlock()

	ds.mu.Lock()
	ds.recovering = false
	if err != nil {
		ds.status = StatusFailed
		ds.err = err
	}
	done := ds.done
	ds.mu.Unlock()
	if err != nil {
		log.Printf("engine: recovery of %q failed: %v", ds.name, err)
		// An unrecoverable dataset serves nothing; drop the placeholder
		// so the name reads as absent rather than permanently failed.
		// This happens before done closes: a waiter that wakes must
		// already find the name gone.
		e.mu.Lock()
		if cur, ok := e.datasets[ds.name]; ok && cur == ds {
			delete(e.datasets, ds.name)
		}
		e.mu.Unlock()
	}
	close(done)
}

// recoverLocked is the body of recoverDataset, run under the dataset's
// workMu: snapshot load, WAL replay, index rebuild, checkpoint,
// installation.
func (e *Engine) recoverLocked(ctx context.Context, ds *dataset) error {
	start := time.Now()
	e.mu.RLock()
	cfg := e.dur
	e.mu.RUnlock()
	st, err := dsnap.Open(cfg.fs, cfg.datasetDir(ds.name))
	if err != nil {
		return err
	}
	data, seq, err := st.Load()
	if err != nil {
		return err
	}
	tLoad := time.Now()
	g := data.Graph
	var res *core.Result
	algo := algoFromName(data.Algo)
	if data.HasResult {
		res = &core.Result{Phi: data.Phi, Sup: data.Sup, MaxPhi: maxInt64(data.Phi)}
	}

	// Replay the WAL suffix: every segment at or past the loaded
	// generation, in order. Records at or below the snapshot's version
	// are already contained in it (the fallback generation's segment
	// starts earlier); a version gap or an invalid record ends the
	// usable suffix — later records would build on a state we do not
	// have.
	//
	// The whole usable suffix folds into ONE delta over the snapshot's
	// graph: WAL operations address edges by vertex pair, never by edge
	// id, and staging them in recorded order reproduces the sequential
	// end state (Delta is last-write-wins per edge). That costs one
	// graph materialisation, one remap and one maintenance pass instead
	// of one of each per record — the difference between a cold start
	// bounded by the suffix's net effect and one proportional to its
	// length times the graph size.
	segs, err := st.WALSeqs()
	if err != nil {
		return err
	}
	delta := bigraph.NewDelta(g)
	version := g.Version()
	replayed := 0
replay:
	for _, segSeq := range segs {
		if segSeq < seq {
			continue
		}
		recs, err := wal.Replay(cfg.fs, st.WALPath(segSeq))
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if err := ctx.Err(); err != nil {
				return err
			}
			if e.isClosed() {
				return ErrClosed
			}
			if rec.Version <= version {
				continue
			}
			if rec.Version != version+1 {
				log.Printf("engine: recovery of %q: WAL version gap (%d after %d); dropping the rest of the log", ds.name, rec.Version, version)
				break replay
			}
			if !walOpsValid(rec) {
				log.Printf("engine: recovery of %q: version %d holds out-of-range vertices; dropping the rest of the log", ds.name, rec.Version)
				break replay
			}
			stageWALRecord(delta, rec)
			version++
			replayed++
		}
	}
	if replayed > 0 {
		g2, rm, err := delta.Apply()
		if err != nil {
			return fmt.Errorf("replaying WAL: %w", err)
		}
		g2 = g2.WithVersion(version)
		if res != nil {
			res2, _, err := core.Maintain(g, res, g2, rm, core.MaintainOptions{
				Algorithm: algo,
				Workers:   data.Workers,
				Ranges:    data.Ranges,
				Cancel:    e.closed,
			})
			if err != nil {
				// Unlike a broken WAL record, a failed maintenance pass
				// (only cancellation can cause one) leaves no usable
				// prefix — abort and leave the files for a retry.
				return fmt.Errorf("maintenance of replayed versions %d..%d: %w", g.Version()+1, version, err)
			}
			res = res2
		}
		g = g2
	}
	tReplay := time.Now()

	var idx *community.Index
	if res != nil {
		idx = community.NewIndexParallel(g, res.Phi, data.Workers)
	}
	tIndex := time.Now()
	newSnap := &snapshot{version: g.Version(), g: g, res: res, idx: idx, algo: algo, cache: e.newCache(), ana: newAnalytics()}

	// Checkpoint the recovered state as a fresh generation: the replayed
	// suffix folds into the snapshot and the WAL it covered is pruned.
	d := &durableState{fs: cfg.fs, store: st, every: cfg.every}
	if top := segs; len(top) > 0 && top[len(top)-1] > seq {
		d.seq = top[len(top)-1]
	} else {
		d.seq = seq
	}
	if err := d.checkpoint(newSnap, data.Workers, data.Ranges); err != nil {
		return err
	}
	ds.dur = d

	if res != nil {
		e.firePublish(ds.name, newSnap)
	}
	ds.mu.Lock()
	ds.snap = newSnap
	if res != nil {
		ds.status = StatusReady
	} else {
		ds.status = StatusLoaded
	}
	ds.workers = data.Workers
	ds.ranges = data.Ranges
	ds.mu.Unlock()
	log.Printf("engine: recovered %q: %d edges at version %d, %d WAL records replayed in %v (load %v, replay %v, index %v, checkpoint %v)",
		ds.name, g.NumEdges(), g.Version(), replayed, time.Since(start).Round(time.Millisecond),
		tLoad.Sub(start).Round(time.Millisecond), tReplay.Sub(tLoad).Round(time.Millisecond),
		tIndex.Sub(tReplay).Round(time.Millisecond), time.Since(tIndex).Round(time.Millisecond))
	return nil
}

// walOpsValid reports whether every operation in the record addresses
// an in-range vertex. Checked BEFORE staging so that a corrupt record
// never half-applies: a failing record ends the usable suffix with the
// delta still holding exactly the records before it.
func walOpsValid(rec wal.Record) bool {
	for _, op := range rec.Ops {
		if int(op.U) >= bigraph.MaxLayerSize || int(op.V) >= bigraph.MaxLayerSize {
			return false
		}
	}
	return true
}

// stageWALRecord stages one record's operations into the replay delta
// in their recorded order.
func stageWALRecord(delta *bigraph.Delta, rec wal.Record) {
	for _, op := range rec.Ops {
		if op.Del {
			delta.Delete(int(op.U), int(op.V))
		} else {
			delta.Insert(int(op.U), int(op.V))
		}
	}
}

// algoFromName inverts core.Algorithm.String, defaulting to BiT-BU++
// for an unknown or empty name (old snapshots stay loadable if an
// algorithm is ever retired).
func algoFromName(name string) core.Algorithm {
	for a := core.BiTBS; a <= core.BiTBUPlusPlusParallel; a++ {
		if a.String() == name {
			return a
		}
	}
	return core.BiTBUPlusPlus
}

func maxInt64(vals []int64) int64 {
	var m int64
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}
