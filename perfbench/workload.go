package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/bigraph"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/tip"
)

// workload is one traffic shape. Both workloads run the same journey —
// set up the resident serving dataset, serve open-loop reads beside
// durable writes on it, crash, then load and decompose a subject graph
// from its edge file and query its tip decomposition between restarts
// from the crashed directory — so each reports every end-to-end metric;
// the subject graph decides which decomposition layer dominates ready_s
// and tip_s.
type workload struct {
	name string
	// subject is the graph loaded from its edge file for ready_s and
	// tip_s.
	subject func(seed int64) graphSpec
}

// residentSpec is the resident, durable serving graph of every
// workload: skewed (~19.6k edges, max φ about 600), small enough that a
// write epoch takes ~0.08 s, so the paced writer keeps the applier
// under half busy and a slower machine does not tip it into saturation.
func residentSpec(seed int64) graphSpec { return zipfSpec(4400, 13250, 31500, 1.2, 1.0, seed) }

var workloads = []workload{
	// Peel-dominated decomposition: ~112k edges, max φ about 2.8k.
	{name: "ready-skew", subject: func(seed int64) graphSpec {
		return zipfSpec(26400, 79500, 189000, 1.2, 1.0, seed)
	}},
	// Ingest- and BE-Index-dominated: 1.5M edges, max φ = 2, so the
	// peel is cheap and tip is dominated by counting.
	{name: "ready-uniform", subject: func(seed int64) graphSpec {
		return uniformSpec(150000, 50000, 1_500_000, seed)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	setupReps     = 3  // set-ups per run; setup_s is their median
	restarts      = 5  // restarts from copies of the crashed directory
	subjectCycles = 3  // subject load-decompose-tip cycles; ready_s and tip_s are their median
	readsPerSec   = 60 // open-loop read rate
	residentName  = "resident"
	phiSamples    = 500 // φ lookups of the subject checked one by one
	thetaSamples  = 100 // θ lookups per layer
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark run: its inputs, its accounting of operations
// and checks, and the metrics it produced.
type run struct {
	w       workload
	seed    int64
	seconds int
	tr      *tracer
	work    string

	attempted, failed int
	problems          []string

	e2e     map[string]metric
	layers  map[string]metric
	samples map[string]int
	graphs  map[string]graphInfo
}

// graphInfo describes one generated graph in the result record.
type graphInfo struct {
	Spec   string `json:"spec"`
	Seed   int64  `json:"seed"`
	Edges  int    `json:"edges"`
	MaxPhi int64  `json:"max_phi"`
}

// op counts one operation and reports whether it succeeded.
func (r *run) op(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.note("%s: %v", what, err)
		return false
	}
	return true
}

// check counts one checked answer; msg is empty when it was right.
func (r *run) check(msg, what string) {
	r.attempted++
	if msg != "" {
		r.failed++
		r.note("%s: %s", what, msg)
	}
}

// logf reports progress on standard error with the time since the run
// started.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs %s\n", time.Since(r.tr.start).Seconds(), fmt.Sprintf(format, args...))
}

func (r *run) note(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) setE2E(name, unit string, v float64, n int) {
	r.e2e[name] = metric{v, unit}
	r.samples[name] = n
}

func (r *run) setLayer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }

// execute runs the journey. An error means the run could not be carried
// out at all; wrong answers are counted as failed operations instead.
func (r *run) execute(ctx context.Context) error {
	resident, subject := residentSpec(r.seed), r.w.subject(r.seed)

	// Set-up: inputs from the seed, written to disk, and the resident
	// dataset ready with its pre-warm done — several times, keeping the
	// last.
	var (
		inst     *instance
		in       inputs
		setupDur []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			if err := inst.stop(); err != nil {
				return fmt.Errorf("stopping set-up server: %w", err)
			}
			if err := os.RemoveAll(in.dir); err != nil {
				return err
			}
		}
		var d time.Duration
		var err error
		inst, in, d, err = r.setup(ctx, filepath.Join(r.work, fmt.Sprintf("setup-%d", rep)), resident, subject)
		if err != nil {
			return err
		}
		setupDur = append(setupDur, secs(d))
	}
	r.setE2E("setup_s", "s", median(setupDur), len(setupDur))
	r.logf("set-up done")

	// Set-up grew the heap well past what serving needs; returning it to
	// the OS now keeps the runtime's background scavenger from doing it
	// during the serving phase.
	debug.FreeOSMemory()
	sv, err := r.servePhase(ctx, inst, in)
	if err != nil {
		_ = inst.stop() // error path: the run already failed
		return err
	}
	r.logf("serving phase done")
	inst.crash()

	// The restarts from the crashed directory are spread across the
	// subject phase — one before each cycle, the rest after the
	// references — so that restart_s, whose largest part is the
	// recovery checkpoint's fsyncs, samples the disk over half a minute
	// rather than over one second.
	var restartS []float64
	restart := func() error {
		d, err := r.restart(ctx, in.dataDir, len(restartS), sv)
		restartS = append(restartS, secs(d))
		return err
	}
	// The subject gets a durable server of its own, as a bitserved
	// started on an empty data directory would be.
	subj, err := startServer(ctx, filepath.Join(in.dir, "subject-data"))
	if err != nil {
		return err
	}
	subjectRef, err := r.subjectPhase(ctx, subj, subject, in.subjectFile, restart)
	if serr := subj.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	// The subject's reference graph and decomposition are done with;
	// dropping them keeps the collections before the last restarts small.
	subjectRef.g, subjectRef.res = nil, nil
	r.logf("subject phase and references done")
	for len(restartS) < restarts {
		if err := restart(); err != nil {
			return err
		}
	}
	r.setE2E("restart_s", "s", median(restartS), len(restartS))
	r.logf("restarts done")

	baseG := resident.graph()
	baseRes, err := reference(baseG)
	if err != nil {
		return err
	}
	r.graphs["resident"] = graphInfo{Spec: resident.String(), Seed: resident.Seed, Edges: baseG.NumEdges(), MaxPhi: baseRes.MaxPhi}
	r.checkServe(baseG, baseRes, in, sv)
	r.logf("serving checks done")
	if r.tr.on {
		if err := r.traceLayers(ctx, subject, in, sv, subjectRef); err != nil {
			return err
		}
	}
	return nil
}

// inputs are one set-up's generated files and plans.
type inputs struct {
	dir          string
	subjectFile  string
	residentFile string
	dataDir      string
	plan         []batch
	reads        []readOp
}

// setup generates the inputs under dir, starts a durable server and
// brings the resident dataset to ready.
func (r *run) setup(ctx context.Context, dir string, resident, subject graphSpec) (*instance, inputs, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	in := inputs{dir: dir, dataDir: filepath.Join(dir, "data"), residentFile: filepath.Join(dir, "resident.txt"), subjectFile: filepath.Join(dir, "subject.txt")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, in, 0, err
	}
	if err := resident.writeFile(in.residentFile); err != nil {
		return nil, in, 0, fmt.Errorf("writing resident graph: %w", err)
	}
	if err := subject.writeFile(in.subjectFile); err != nil {
		return nil, in, 0, fmt.Errorf("writing subject graph: %w", err)
	}
	g := resident.graph()
	var pool [][2]int
	in.plan, pool = writePlan(g, writeBatches, r.seed)
	in.reads = readPlan(r.seconds*readsPerSec, r.seed, pool, g.NumUpper(), g.NumLower())

	inst, err := startServer(ctx, in.dataDir)
	if err != nil {
		return nil, in, 0, err
	}
	c := inst.newClient()
	id := r.tr.begin("setup.resident_ready", 0)
	_, err = loadAndDecompose(ctx, c, residentName, in.residentFile)
	r.tr.end(id)
	if !r.op(err, "set-up") {
		_ = inst.stop()
		return nil, in, 0, err
	}
	return inst, in, time.Since(t0), nil
}

// subjectRef is the reference side of the subject graph.
type subjectRef struct {
	g        *bigraph.Graph
	res      *core.Result
	tipUpper time.Duration
	tipLower time.Duration
	ready    time.Duration // the traced cycle's ready time
	overhead time.Duration // traced ready time minus its untraced neighbours' mean
}

// subjectPhase loads, decomposes and tip-queries the subject graph
// subjectCycles times, each time as a fresh dataset, and reports the
// median cycle. The answers of the last cycle are checked against
// references computed once. In the traced run only the middle cycle
// records spans, so its ready time can be set against the mean of the
// untraced cycles on either side of it, which cancels a steady drift
// of the machine's speed across the three. beforeCycle runs, untimed,
// before each cycle.
func (r *run) subjectPhase(ctx context.Context, inst *instance, spec graphSpec, file string, beforeCycle func() error) (subjectRef, error) {
	var ref subjectRef
	c := inst.newClient()
	var readyS, tipS, bpe []float64
	for cycle := 1; cycle <= subjectCycles; cycle++ {
		if err := beforeCycle(); err != nil {
			return ref, err
		}
		traced := r.tr.on && cycle == 2
		tr := r.tr
		if !traced {
			tr = newTracer(false)
		}
		name := fmt.Sprintf("subject-%d", cycle)
		runtime.GC()
		root := tr.begin("ready", 0)
		t0 := time.Now()
		ds, err := loadAndDecompose(ctx, c, name, file)
		ready := time.Since(t0)
		tr.end(root)
		if !r.op(err, "ready "+name) {
			return ref, err
		}
		// Each timed phase starts from a collected heap, so the
		// decomposition's garbage is not charged to tip_s.
		runtime.GC()
		root = tr.begin("tip", 0)
		t1 := time.Now()
		var tips [2]client.TipResult
		for i, layer := range []client.Layer{client.UpperLayer, client.LowerLayer} {
			tips[i], err = c.Dataset(name).Tip(ctx, layer)
			if !r.op(err, "tip "+name) {
				return ref, err
			}
		}
		tipDur := time.Since(t1)
		tr.end(root)
		readyS = append(readyS, secs(ready))
		tipS = append(tipS, secs(tipDur))
		bpe = append(bpe, ds.Memory.BytesPerEdge)
		if traced {
			ref.ready = ready
		}
		if cycle == subjectCycles {
			ref, err = r.checkSubject(ctx, c.Dataset(name), spec, ds, tips, ref)
			if err != nil {
				return ref, err
			}
		}
		r.op(c.Dataset(name).Delete(ctx), "delete "+name)
	}
	if r.tr.on {
		ref.overhead = ref.ready - time.Duration((readyS[0]+readyS[2])/2*float64(time.Second))
	}
	r.setE2E("ready_s", "s", median(readyS), len(readyS))
	r.setE2E("tip_s", "s", median(tipS), len(tipS))
	r.setE2E("serving_bytes_per_edge", "B/edge", median(bpe), len(bpe))
	r.graphs["subject"] = graphInfo{Spec: spec.String(), Seed: spec.Seed, Edges: ref.g.NumEdges(), MaxPhi: ref.res.MaxPhi}
	return ref, nil
}

// checkSubject compares the served decomposition and tip results of the
// subject with references computed on the graph rebuilt from its spec.
func (r *run) checkSubject(ctx context.Context, d *client.DatasetClient, spec graphSpec, ds client.Dataset, tips [2]client.TipResult, ref subjectRef) (subjectRef, error) {
	root := r.tr.begin("reference", 0)
	defer r.tr.end(root)
	r.tr.timed("gen.graph", root, func() { ref.g = spec.graph() })
	var err error
	r.tr.timed("core.reference_pc", root, func() { ref.res, err = reference(ref.g) })
	if err != nil {
		return ref, err
	}
	var tu, tl *tip.Result
	ref.tipUpper = r.tr.timed("tip.upper", root, func() { tu = tip.Decompose(ref.g, true) })
	ref.tipLower = r.tr.timed("tip.lower", root, func() { tl = tip.Decompose(ref.g, false) })
	g, phi := ref.g, ref.res.Phi

	what := "subject " + d.Name()
	r.check(ifne(ds.Edges != g.NumEdges(), "served %d edges, reference %d", ds.Edges, g.NumEdges()), what+" edges")
	r.check(ifne(ds.MaxPhi != maxOf(phi), "served max φ %d, reference %d", ds.MaxPhi, maxOf(phi)), what+" max φ")

	// Every edge of φ >= 1 with its φ; with the edge count above, the
	// rest have φ = 0, which the sampled lookups below also cover.
	kb, err := d.KBitruss(ctx, 1)
	if r.op(err, what+" kbitruss") {
		got := make([]edgePhi, len(kb.Edges))
		for i, e := range kb.Edges {
			got[i] = edgePhi{int(e.U), int(e.V), e.Phi}
		}
		sortEdges(got)
		r.check(diffEdges(got, phiAtLeast(g, phi, 1)), what+" φ >= 1 edges")
	}
	rng := rand.New(rand.NewSource(r.seed ^ 0x9c4e))
	nl := g.NumLower()
	qs := make([]client.BatchQuery, phiSamples)
	want := make([]int64, phiSamples)
	for i := range qs {
		e := int32(rng.Intn(g.NumEdges()))
		ed := g.Edge(e)
		qs[i] = client.BatchPhi(int(ed.U)-nl, int(ed.V))
		want[i] = phi[e]
	}
	br, err := d.Batch(ctx, qs)
	if r.op(err, what+" φ lookups") {
		for i, it := range br.Results {
			switch {
			case it.Error != nil:
				r.check(it.Error.Message, what+" φ lookup")
			case it.Phi == nil || *it.Phi != want[i]:
				r.check(fmt.Sprintf("φ%v of (%d, %d), want %d", derefOr(it.Phi), *it.U, *it.V, want[i]), what+" φ lookup")
			default:
				r.check("", what+" φ lookup")
			}
		}
	}

	for i, tr := range []*tip.Result{tu, tl} {
		got := tips[i]
		r.check(ifne(got.MaxTheta != tr.MaxTheta || got.TotalButterflies != tr.TotalButterflies || got.Vertices != len(tr.Theta),
			"served (θmax %d, ⋈ %d, %d vertices), reference (%d, %d, %d)", got.MaxTheta, got.TotalButterflies, got.Vertices,
			tr.MaxTheta, tr.TotalButterflies, len(tr.Theta)), what+" tip "+got.Layer)
		layer := client.Layer(got.Layer)
		for j := 0; j < thetaSamples && len(tr.Theta) > 0; j++ {
			v := rng.Intn(len(tr.Theta))
			th, err := d.Theta(ctx, layer, v)
			if r.op(err, what+" θ") {
				r.check(ifne(th.Theta != tr.Theta[v], "θ(%s %d) = %d, want %d", layer, v, th.Theta, tr.Theta[v]), what+" θ")
			}
		}
	}
	return ref, nil
}

// serveRun is what the serving phase observed.
type serveRun struct {
	v0, lastAcked  int64
	baseLevels     []int64  // served levels before the writes
	planned        []readOp // the read plan with its levels resolved
	reads          []timing
	answers        []answer
	writes         []timing
	acks           []client.MutateResult
	final          []edgePhi // served φ of every edge after the writes
	mutLog         []engine.MutationRecord
	cacheBytes     int64
	stats0, stats1 server.Stats
}

// servePhase runs the open-loop reads beside the closed-loop writer on
// the resident dataset.
func (r *run) servePhase(ctx context.Context, inst *instance, in inputs) (*serveRun, error) {
	sv := &serveRun{}
	rd := inst.newClient().Dataset(residentName)
	wd := inst.newClient().Dataset(residentName)
	lv, err := rd.Levels(ctx)
	if !r.op(err, "base levels") {
		return nil, err
	}
	sv.v0, sv.baseLevels = lv.Version, lv.Levels
	reads := resolveLevels(in.reads, lv.Levels)
	sv.planned = reads

	sv.answers = make([]answer, len(reads))
	sv.acks = make([]client.MutateResult, len(in.plan))
	var acked atomic.Int64
	acked.Store(sv.v0)
	interval := time.Second / readsPerSec
	phase := time.Duration(r.seconds) * time.Second
	sv.stats0 = inst.api.Stats()
	root := r.tr.begin("serve", 0)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sv.reads = schedule(ctx, start, len(reads), interval, false, func(i int) {
			id := r.tr.begin("read."+reads[i].Kind, root)
			lo := rd.PinnedVersion()
			a := doRead(ctx, rd, reads[i])
			a.lo, a.hi = max(lo, sv.v0), acked.Load()+1
			sv.answers[i] = a
			r.tr.end(id)
		})
	}()
	go func() {
		defer wg.Done()
		sv.writes = schedule(ctx, start, len(in.plan), phase/time.Duration(len(in.plan)), true, func(i int) {
			id := r.tr.begin("write", root)
			defer r.tr.end(id)
			b := in.plan[i]
			res, err := wd.Mutate(ctx, client.MutateRequest{Insert: b.Insert, Delete: b.Delete, Wait: true})
			if err != nil {
				sv.acks[i] = client.MutateResult{Version: -1}
				return
			}
			sv.acks[i] = res
			acked.Store(res.Version)
		})
	}()
	wg.Wait()
	r.tr.end(root)
	sv.stats1 = inst.api.Stats()

	for i := range in.plan {
		b, a := in.plan[i], sv.acks[i]
		var msg string
		switch {
		case i >= len(sv.writes) || a.Version < 0:
			msg = "no acknowledgement"
		case a.Version != sv.v0+int64(i)+1 || !a.Applied || a.Inserted != len(b.Insert) || a.Deleted != len(b.Delete):
			msg = fmt.Sprintf("ack at version %d (applied %v, +%d -%d), want version %d (+%d -%d)",
				a.Version, a.Applied, a.Inserted, a.Deleted, sv.v0+int64(i)+1, len(b.Insert), len(b.Delete))
		}
		r.check(msg, fmt.Sprintf("write %d", i))
	}
	if len(sv.writes) != len(in.plan) || len(sv.reads) != len(reads) {
		return nil, fmt.Errorf("serving phase cut short: %d of %d writes, %d of %d reads", len(sv.writes), len(in.plan), len(sv.reads), len(reads))
	}
	sv.lastAcked = sv.v0 + int64(len(in.plan))

	var rl, wl []float64
	for _, t := range sv.reads {
		rl = append(rl, ms(t.latency()))
	}
	for _, t := range sv.writes {
		wl = append(wl, ms(t.latency()))
	}
	for _, p := range []struct {
		name string
		xs   []float64
		pct  float64
	}{{"read_p50_ms", rl, 50}, {"read_p99_ms", rl, 99}, {"write_ack_p50_ms", wl, 50}, {"write_ack_p90_ms", wl, 90}} {
		v, ok := percentile(p.xs, p.pct)
		if !ok {
			return nil, fmt.Errorf("%s: %d samples do not support p%g", p.name, len(p.xs), p.pct)
		}
		r.setE2E(p.name, "ms", v, len(p.xs))
	}

	// The layer figures the traced run reports, read before the crash.
	if sv.mutLog, err = inst.eng.MutationLog(residentName); err != nil {
		return nil, err
	}
	vw, err := inst.eng.View(residentName)
	if err != nil {
		return nil, err
	}
	_, sv.cacheBytes = vw.CacheStats()

	r.traceServe(sv)

	kb, err := inst.newClient().Dataset(residentName).KBitruss(ctx, 0)
	if r.op(err, "served φ after the writes") {
		r.check(ifne(kb.Version != sv.lastAcked, "answered at version %d, want %d", kb.Version, sv.lastAcked), "served φ after the writes")
		sv.final = kbEdges(kb)
	}
	return sv, nil
}

// restart starts a server on copy k of the crashed data directory and
// times it until the first read answers at the last acknowledged
// version. The first restart's φ must equal the pre-crash φ of every
// edge.
func (r *run) restart(ctx context.Context, dataDir string, k int, sv *serveRun) (time.Duration, error) {
	dir := fmt.Sprintf("%s-restart-%d", dataDir, k)
	if err := copyDir(dataDir, dir); err != nil {
		return 0, err
	}
	runtime.GC()
	id := r.tr.begin("restart", 0)
	t0 := time.Now()
	inst, err := startServer(ctx, dir)
	if err != nil {
		return 0, err
	}
	d := inst.newClient().Dataset(residentName)
	var lv client.LevelsResult
	for {
		lv, err = d.Levels(ctx)
		var ae *client.APIError
		if err == nil || !errors.As(err, &ae) || ae.Code != client.CodeRecovering || time.Since(t0) > time.Minute {
			break
		}
		time.Sleep(time.Millisecond)
	}
	dur := time.Since(t0)
	r.tr.end(id)
	if r.op(err, "first read after restart") {
		r.check(ifne(lv.Version != sv.lastAcked, "first read at version %d, want the last acked %d", lv.Version, sv.lastAcked), "restart version")
	}
	if k == 0 && sv.final != nil {
		kb, err := d.KBitruss(ctx, 0)
		if r.op(err, "φ after restart") {
			r.check(diffEdges(kbEdges(kb), sv.final), "φ after restart")
		}
	}
	if err := inst.stop(); err != nil {
		return 0, fmt.Errorf("stopping restarted server: %w", err)
	}
	return dur, os.RemoveAll(dir)
}

// checkServe replays the acknowledged writes on the benchmark's own
// reference chain and checks every read against the state at the
// version it reported, then checks the final state against a fresh
// BiT-PC decomposition of the benchmark's own edge set.
func (r *run) checkServe(baseG *bigraph.Graph, baseRes *core.Result, in inputs, sv *serveRun) {
	chain := newRefChain(baseG, baseRes, sv.v0)
	// Reads by version; a not_found community_of can only be placed in a
	// version range, and is right if any version in it has no community.
	byVersion := map[int64][]int{}
	pendingNF := map[int]bool{}
	for i, a := range sv.answers {
		switch {
		case a.err != nil:
			r.op(a.err, "read "+in.reads[i].Kind)
		case a.notFound:
			pendingNF[i] = true
		case a.version < sv.v0 || a.version > sv.lastAcked:
			r.check(fmt.Sprintf("answered at version %d outside [%d, %d]", a.version, sv.v0, sv.lastAcked), "read "+in.reads[i].Kind)
		default:
			byVersion[a.version] = append(byVersion[a.version], i)
		}
	}
	r.check(ifne(digestLevels(sv.baseLevels) != digestLevels(levelsOf(baseRes.Phi)), "served levels before the writes differ from the reference"), "base levels")
	reads := sv.planned
	for v := sv.v0; ; v++ {
		for _, i := range byVersion[v] {
			r.check(chain.checkRead(reads[i], sv.answers[i]), "read "+reads[i].Kind)
		}
		for i := range pendingNF {
			a := sv.answers[i]
			if a.lo <= v && v <= a.hi && !chain.hasCommunity(reads[i]) {
				delete(pendingNF, i)
				r.check("", "read community_of")
			}
		}
		if v == sv.lastAcked {
			break
		}
		b := in.plan[v-sv.v0]
		if !r.op(chain.apply(b), "reference maintenance") {
			return
		}
	}
	for i := range pendingNF {
		op := reads[i]
		r.check(fmt.Sprintf("not_found for %v vertex %d at k=%d, but the reference has a community at every version in [%d, %d]",
			layerName(op.Upper), op.Vertex, op.K, sv.answers[i].lo, sv.answers[i].hi), "read community_of")
	}

	fresh, err := freshReference(baseG, in.plan)
	if !r.op(err, "reference BiT-PC after the writes") {
		return
	}
	r.check(diffEdges(chain.edges(), fresh), "reference chain vs fresh BiT-PC")
	if sv.final != nil {
		r.check(diffEdges(sv.final, fresh), "served φ after the writes vs fresh BiT-PC")
	}
}

// copyDir copies the regular files of a (two-level) data directory.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func kbEdges(kb client.KBitrussResult) []edgePhi {
	out := make([]edgePhi, len(kb.Edges))
	for i, e := range kb.Edges {
		out[i] = edgePhi{int(e.U), int(e.V), e.Phi}
	}
	sortEdges(out)
	return out
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func ifne(bad bool, format string, args ...any) string {
	if !bad {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

func derefOr(p *int64) any {
	if p == nil {
		return "<nil>"
	}
	return *p
}

func layerName(upper bool) string {
	if upper {
		return "upper"
	}
	return "lower"
}
