package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bigraph"
	"repro/internal/bloom"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/dataio"
	dsnap "repro/internal/snapshot"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// traceLayers produces the per-layer metrics of the traced run. It
// times the benchmark's own calls into each module's public functions
// on the run's inputs — the subject's edge file through ingest, index,
// decomposition and community index, the acknowledged batches through
// the WAL, the final state through a snapshot, and recovery re-executed
// step by step on a copy of the crashed data directory — and reads the
// engine's and server's own counters captured before the crash.
func (r *run) traceLayers(ctx context.Context, spec graphSpec, in inputs, sv *serveRun, ref subjectRef) error {
	root := r.tr.begin("layers", 0)
	defer r.tr.end(root)
	if err := r.traceReady(spec, in.subjectFile, ref, root); err != nil {
		return err
	}
	r.traceServe(sv)
	if err := r.traceDurability(in, sv, root); err != nil {
		return err
	}
	return nil
}

// traceReady times the layers of file -> ready on the subject graph.
func (r *run) traceReady(spec graphSpec, file string, ref subjectRef, root int) error {
	var nEdges, nu, nl int
	scan := func(edge func(u, v int)) error {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		return dataio.ScanText(f, dataio.TextOptions{}, func(u, l int) { nu, nl = u, l }, edge)
	}
	var err error
	scanDur := r.tr.timed("dataio.scan", root, func() { err = scan(func(u, v int) { nEdges++ }) })
	if err != nil {
		return fmt.Errorf("scanning %s: %w", file, err)
	}
	pairs := make([][2]int, 0, nEdges)
	if err := scan(func(u, v int) { pairs = append(pairs, [2]int{u, v}) }); err != nil {
		return err
	}
	var g *bigraph.Graph
	buildDur := r.tr.timed("bigraph.build", root, func() {
		var b bigraph.Builder
		b.SetLayerSizes(nu, nl)
		b.Grow(len(pairs))
		for _, p := range pairs {
			b.AddEdge(p[0], p[1])
		}
		g, err = b.Build()
	})
	if err != nil {
		return err
	}
	pairs = nil
	bloomDur := r.tr.timed("bloom.build", root, func() { _ = bloom.Build(g) })
	var res *core.Result
	decDur := r.tr.timed("core.decompose", root, func() {
		res, err = core.Decompose(g, core.Options{Algorithm: core.BiTBUPlusPlus, Workers: serveWorkers})
	})
	if err != nil {
		return err
	}
	idxDur := r.tr.timed("community.index", root, func() { _ = community.NewIndexParallel(g, res.Phi, serveWorkers) })

	m := res.Metrics
	r.setLayer("dataio.scan_s", "s", secs(scanDur))
	r.setLayer("bigraph.build_s", "s", secs(buildDur))
	r.setLayer("bloom.build_s", "s", secs(bloomDur))
	r.setLayer("bloom.index_bytes", "B", float64(m.PeakIndexBytes))
	r.setLayer("core.decompose_s", "s", secs(decDur))
	r.setLayer("core.peel_s", "s", secs(m.PeelTime))
	r.setLayer("core.support_updates", "count", float64(m.SupportUpdates))
	r.setLayer("butterfly.total", "count", float64(m.TotalButterflies))
	r.setLayer("core.max_phi", "count", float64(res.MaxPhi))
	r.setLayer("community.index_s", "s", secs(idxDur))
	r.setLayer("tip.upper_s", "s", secs(ref.tipUpper))
	r.setLayer("tip.lower_s", "s", secs(ref.tipLower))
	r.setLayer("ready.residual_s", "s", secs(ref.ready-scanDur-buildDur-decDur-idxDur))
	r.setLayer("trace.ready_overhead_s", "s", secs(ref.overhead))
	return nil
}

// traceServe derives the serving layers' figures from the engine's
// mutation log, the server's counters and the phase's own timings.
func (r *run) traceServe(sv *serveRun) {
	var stage, delta, peel, index, publish, epoch, cands, changed []float64
	var sumCand, sumChanged, fallbacks int
	for _, rec := range sv.mutLog {
		if rec.Version <= sv.v0 {
			continue
		}
		stage = append(stage, ms(rec.StageTime))
		delta = append(delta, ms(rec.DeltaTime))
		peel = append(peel, ms(rec.PeelTime))
		index = append(index, ms(rec.IndexTime))
		publish = append(publish, ms(rec.PublishTime))
		epoch = append(epoch, ms(rec.Duration))
		cands = append(cands, float64(rec.Candidates))
		changed = append(changed, float64(rec.ChangedPhi))
		sumCand += rec.Candidates
		sumChanged += rec.ChangedPhi
		if rec.FellBack {
			fallbacks++
		}
	}
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"stage", stage}, {"delta", delta}, {"peel", peel}, {"index", index}, {"publish", publish}} {
		r.setPercentiles("engine.epoch_"+s.name, "ms", s.xs, 50, 90)
	}
	r.setPercentiles("engine.epoch", "ms", epoch, 50, 90)
	r.setPercentiles("core.maintain_candidates", "count", cands, 90)
	r.setPercentiles("core.maintain_changed_phi", "count", changed, 90)
	if sumCand > 0 {
		r.setLayer("core.maintain_useful_ratio", "ratio", float64(sumChanged)/float64(sumCand))
	} else {
		r.setLayer("core.maintain_useful_ratio", "ratio", 0)
	}
	r.setLayer("core.maintain_fallbacks", "count", float64(fallbacks))
	r.setLayer("engine.cache_bytes", "B", float64(sv.cacheBytes))

	hits := float64(sv.stats1.CacheHits - sv.stats0.CacheHits)
	misses := float64(sv.stats1.CacheMisses - sv.stats0.CacheMisses)
	if hits+misses > 0 {
		r.setLayer("server.cache_hit_ratio", "ratio", hits/(hits+misses))
	} else {
		r.setLayer("server.cache_hit_ratio", "ratio", 0)
	}
	// Per route: service time (sent to answered), the layer's own cost
	// without the queueing the end-to-end read latency includes.
	byKind := map[string][]float64{}
	var lag []float64
	reads := sv.planned
	for i, t := range sv.reads {
		byKind[reads[i].Kind] = append(byKind[reads[i].Kind], ms(t.Done-t.Sent))
		lag = append(lag, ms(t.lag()))
	}
	for _, m := range readMix {
		r.setPercentiles("server."+m.kind, "ms", byKind[m.kind], 50, 90)
	}
	r.setPercentiles("loadgen.read_lag", "ms", lag, 99)
	var wlag []float64
	for _, t := range sv.writes {
		wlag = append(wlag, ms(t.lag()))
	}
	r.setPercentiles("loadgen.write_lag", "ms", wlag, 90)
}

// setPercentiles reports name_pNN_unit for each percentile the sample
// supports, and the highest supported one under the asked name when a
// tail is not (recorded in the problems list, not as a failure).
func (r *run) setPercentiles(name, unit string, xs []float64, pcts ...float64) {
	for _, p := range pcts {
		key := fmt.Sprintf("%s_p%g_%s", name, p, unit)
		if unit == "count" {
			key = fmt.Sprintf("%s_p%g", name, p)
		}
		v, ok := percentile(xs, p)
		if !ok {
			r.note("%s: %d samples do not support p%g", key, len(xs), p)
		}
		r.setLayer(key, unit, v)
	}
}

// traceDurability times the WAL, snapshot and recovery layers.
func (r *run) traceDurability(in inputs, sv *serveRun, root int) error {
	dir := filepath.Join(in.dir, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fsys := vfs.OS()

	// The acknowledged batches, appended (and fsynced) one by one on the
	// same filesystem the server logged them to.
	l, err := wal.Create(fsys, filepath.Join(dir, "replay.wal"))
	if err != nil {
		return err
	}
	var appends []float64
	ops := 0
	for i, b := range in.plan {
		rec := wal.Record{Version: sv.v0 + int64(i) + 1}
		for _, p := range b.Insert {
			rec.Ops = append(rec.Ops, wal.Op{U: uint32(p[0]), V: uint32(p[1])})
		}
		for _, p := range b.Delete {
			rec.Ops = append(rec.Ops, wal.Op{Del: true, U: uint32(p[0]), V: uint32(p[1])})
		}
		ops += len(rec.Ops)
		d := r.tr.timed("wal.append", root, func() { err = l.Append(rec) })
		if err != nil {
			return err
		}
		appends = append(appends, ms(d))
	}
	if err := l.Close(); err != nil {
		return err
	}
	st, err := os.Stat(filepath.Join(dir, "replay.wal"))
	if err != nil {
		return err
	}
	r.setLayer("wal.append_ms", "ms", median(appends))
	r.setLayer("wal.bytes_per_op", "B/op", float64(st.Size())/float64(ops))

	// Recovery, step by step, on a copy of the crashed directory.
	crashed := filepath.Join(dir, "crashed")
	if err := copyDir(filepath.Join(in.dataDir, residentName), crashed); err != nil {
		return err
	}
	store, err := dsnap.Open(fsys, crashed)
	if err != nil {
		return err
	}
	var data *dsnap.Data
	var seq uint64
	loadDur := r.tr.timed("snapshot.load", root, func() { data, seq, err = store.Load() })
	if err != nil {
		return err
	}
	segs, err := store.WALSeqs()
	if err != nil {
		return err
	}
	var recs []wal.Record
	replayDur := r.tr.timed("wal.replay", root, func() {
		for _, s := range segs {
			if s < seq {
				continue
			}
			var rs []wal.Record
			if rs, err = wal.Replay(fsys, store.WALPath(s)); err != nil {
				return
			}
			recs = append(recs, rs...)
		}
	})
	if err != nil {
		return err
	}
	g := data.Graph
	delta := bigraph.NewDelta(g)
	version := g.Version()
	for _, rec := range recs {
		if rec.Version <= version {
			continue
		}
		for _, op := range rec.Ops {
			if op.Del {
				delta.Delete(int(op.U), int(op.V))
			} else {
				delta.Insert(int(op.U), int(op.V))
			}
		}
		version = rec.Version
	}
	r.check(ifne(version != sv.lastAcked, "snapshot plus WAL reach version %d, want %d", version, sv.lastAcked), "WAL tail")
	var g2 *bigraph.Graph
	var rm *bigraph.Remap
	applyDur := r.tr.timed("bigraph.delta_apply", root, func() { g2, rm, err = delta.Apply() })
	if err != nil {
		return err
	}
	g2 = g2.WithVersion(version)
	old := &core.Result{Phi: data.Phi, Sup: data.Sup, MaxPhi: maxOf(data.Phi)}
	var res *core.Result
	foldDur := r.tr.timed("core.maintain_fold", root, func() {
		res, _, err = core.Maintain(g, old, g2, rm, core.MaintainOptions{Algorithm: core.BiTBUPlusPlus, Workers: data.Workers, Ranges: data.Ranges})
	})
	if err != nil {
		return err
	}
	rebuildDur := r.tr.timed("community.rebuild", root, func() { _ = community.NewIndexParallel(g2, res.Phi, data.Workers) })
	if sv.final != nil {
		r.check(diffEdges(phiAtLeast(g2, res.Phi, 0), sv.final), "φ of the step-by-step recovery")
	}
	r.setLayer("snapshot.load_ms", "ms", ms(loadDur))
	r.setLayer("wal.replay_ms", "ms", ms(replayDur))
	r.setLayer("bigraph.delta_apply_ms", "ms", ms(applyDur))
	r.setLayer("core.maintain_fold_ms", "ms", ms(foldDur))
	r.setLayer("community.rebuild_ms", "ms", ms(rebuildDur))

	// The recovered state saved as a snapshot generation, as the
	// checkpoint every snapshotEvery batches does on the ack path.
	out, err := dsnap.Open(fsys, filepath.Join(dir, "save"))
	if err != nil {
		return err
	}
	var saves []float64
	for i := uint64(1); i <= 3; i++ {
		d := r.tr.timed("snapshot.save", root, func() {
			err = out.Save(i, &dsnap.Data{Graph: g2, HasResult: true, Algo: core.BiTBUPlusPlus.String(), Phi: res.Phi, Sup: res.Sup})
		})
		if err != nil {
			return err
		}
		saves = append(saves, ms(d))
	}
	fi, err := os.Stat(out.SnapPath(3))
	if err != nil {
		return err
	}
	r.setLayer("snapshot.save_ms", "ms", median(saves))
	r.setLayer("snapshot.bytes", "B", float64(fi.Size()))
	return nil
}
