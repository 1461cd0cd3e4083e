// Package cli implements the logic of the command-line tools (bitruss,
// bggen, bgstat, bitbench) behind testable functions; the main
// packages under cmd/ are one-line wrappers.
package cli

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/internal/bigraph"
	"repro/internal/bloom"
	"repro/internal/butterfly"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/tip"
)

// ErrUsage reports invalid command-line arguments.
var ErrUsage = errors.New("cli: bad usage")

// Bitruss implements the `bitruss` tool: decompose a graph file and
// report bitruss numbers.
func Bitruss(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bitruss", flag.ContinueOnError)
	fs.SetOutput(stderr)
	input := fs.String("input", "", "input graph file (required)")
	oneBased := fs.Bool("one-based", false, "treat text vertex ids as 1-based (KONECT)")
	algo := fs.String("algo", "bu++", "algorithm: bs, bu, bu+, bu++, bu++p, pc")
	tau := fs.Float64("tau", 0, "BiT-PC threshold decrement fraction (0 = default)")
	workers := fs.Int("workers", 0, "parallel workers for the butterfly counting (bs, pc), the BE-Index build (bu, bu+, bu++, bu++p) and the bu++p peeler; counting and index build use at most GOMAXPROCS (0 = serial; bu++p then uses GOMAXPROCS)")
	ranges := fs.Int("ranges", 0, "coarse support ranges of the bu++p peeler (0 = derived from -workers)")
	output := fs.String("output", "", "write per-edge 'u v phi' lines here ('-' = stdout)")
	summary := fs.Bool("summary", true, "print the decomposition summary")
	communities := fs.Int64("communities", -1, "also list the communities of the k-bitruss at this level (-1 = off)")
	top := fs.Int("top", -1, "cap the -communities and -bicliques listings to the n largest/first (-1 = all)")
	tipFlag := fs.Bool("tip", false, "also compute the tip decomposition of both layers")
	bicliques := fs.String("bicliques", "", "also enumerate maximal bicliques at 'AxB' minimum side sizes (e.g. 2x2)")
	mutate := fs.String("mutate", "", "replay a mutation file ('+ u v' / '- u v' lines, blank line or --- ends a batch) with incremental maintenance after the initial decomposition")
	remote := fs.String("remote", "", "replay -mutate against a running bitserved instance (base URL) through the typed v1 client instead of in process")
	remoteDS := fs.String("remote-dataset", "", "dataset name on the -remote server (required with -remote)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote != "" {
		// Remote replay needs no local graph: the dataset lives on the
		// server and every batch goes through client.Mutate (waited), so
		// the printed locality lines are the server's own maintenance
		// statistics.
		if *mutate == "" || *remoteDS == "" {
			fmt.Fprintln(stderr, "bitruss: -remote requires -mutate and -remote-dataset")
			return ErrUsage
		}
		return replayMutationsRemote(*remote, *remoteDS, *mutate, *oneBased, stdout)
	}
	if *input == "" {
		fmt.Fprintln(stderr, "bitruss: -input is required")
		return ErrUsage
	}
	a, ok := core.ParseAlgorithm(*algo)
	if !ok {
		return fmt.Errorf("%w: unknown algorithm %q", ErrUsage, *algo)
	}

	g, err := dataio.LoadFile(*input, dataio.TextOptions{OneBased: *oneBased})
	if err != nil {
		return err
	}
	res, err := core.Decompose(g, core.Options{Algorithm: a, Tau: *tau, Workers: *workers, Ranges: *ranges})
	if err != nil {
		return err
	}

	if *summary {
		m := res.Metrics
		fmt.Fprintf(stdout, "graph      : |U|=%d |L|=%d |E|=%d\n", g.NumUpper(), g.NumLower(), g.NumEdges())
		fmt.Fprintf(stdout, "algorithm  : %v\n", a)
		fmt.Fprintf(stdout, "butterflies: %d\n", m.TotalButterflies)
		fmt.Fprintf(stdout, "max support: %d\n", res.MaxSupport)
		fmt.Fprintf(stdout, "max bitruss: %d\n", res.MaxPhi)
		fmt.Fprintf(stdout, "updates    : %d\n", m.SupportUpdates)
		fmt.Fprintf(stdout, "time       : total=%v counting=%v index=%v extract=%v peel=%v\n",
			m.TotalTime, m.CountingTime, m.IndexTime, m.ExtractTime, m.PeelTime)
		if a == core.BiTPC {
			fmt.Fprintf(stdout, "iterations : %d (kmax=%d)\n", m.Iterations, m.KMax)
		}
		if a == core.BiTBUPlusPlusParallel {
			fmt.Fprintf(stdout, "ranges     : %d (kmax=%d)\n", m.Iterations, m.KMax)
		}
		if m.PeakIndexBytes > 0 {
			fmt.Fprintf(stdout, "index size : %.2f MB\n", float64(m.PeakIndexBytes)/(1<<20))
		}
	}
	if *mutate != "" {
		g, res, err = replayMutations(g, res, a, *mutate, *oneBased, stdout)
		if err != nil {
			return err
		}
	}
	if *tipFlag {
		writeTipSummary(stdout, g)
	}
	if *bicliques != "" {
		var mu, ml int
		if _, err := fmt.Sscanf(*bicliques, "%dx%d", &mu, &ml); err != nil || mu < 1 || ml < 1 {
			return fmt.Errorf("%w: -bicliques wants 'AxB' with positive sides, got %q", ErrUsage, *bicliques)
		}
		if err := writeBicliques(stdout, g, mu, ml, *top); err != nil {
			return err
		}
	}
	if *communities >= 0 {
		writeCommunities(stdout, g, res.Phi, *communities, *top)
	}
	if *output != "" {
		return writePhi(*output, g, res.Phi, *oneBased, stdout)
	}
	return nil
}

// replayMutations applies the batches of a mutation file to (g, res)
// through the incremental maintenance path, printing one locality
// summary line per batch, and returns the final graph and result (the
// -output/-communities flags then report the post-replay state).
//
// File format: one operation per line — "+ u v" inserts, "- u v"
// deletes (layer-local indices, honouring -one-based) — with '%'/'#'
// comments; a blank line or a "---" line ends the current batch.
func replayMutations(g *bigraph.Graph, res *core.Result, algo core.Algorithm, path string, oneBased bool, stdout io.Writer) (*bigraph.Graph, *core.Result, error) {
	batches, err := readMutationFile(path, oneBased)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stdout, "replaying %d mutation batch(es) from %s\n", len(batches), path)
	for bi, batch := range batches {
		d := bigraph.NewDelta(g)
		for _, op := range batch {
			if op.insert {
				d.Insert(op.u, op.v)
			} else {
				d.Delete(op.u, op.v)
			}
		}
		if d.Empty() {
			fmt.Fprintf(stdout, "batch %d: no net change\n", bi+1)
			continue
		}
		g2, rm, err := d.Apply()
		if err != nil {
			return nil, nil, fmt.Errorf("batch %d: %w", bi+1, err)
		}
		res2, st, err := core.Maintain(g, res, g2, rm, core.MaintainOptions{Algorithm: algo})
		if err != nil {
			return nil, nil, fmt.Errorf("batch %d: %w", bi+1, err)
		}
		mode := "maintained"
		if st.FellBack {
			mode = "recomputed (fallback)"
		}
		fmt.Fprintf(stdout, "batch %d: +%d -%d edges -> version %d, %s in %v (candidates %d/%d, φ changes %d, K*=%d)\n",
			bi+1, len(rm.Inserted), len(rm.Deleted), g2.Version(), mode, st.TotalTime.Round(time.Microsecond),
			st.Candidates, g2.NumEdges(), st.ChangedPhi, st.KStar)
		g, res = g2, res2
	}
	fmt.Fprintf(stdout, "final graph: |U|=%d |L|=%d |E|=%d, max bitruss %d\n",
		g.NumUpper(), g.NumLower(), g.NumEdges(), res.MaxPhi)
	return g, res, nil
}

// replayMutationsRemote replays the batches of a mutation file against
// a running bitserved instance through the typed v1 client: each batch
// is one waited client.Mutate call, and the per-batch line reports the
// server's maintenance statistics (the remote analogue of the local
// replay's locality summary). The client pins the handle to each
// resulting version, so a follow-up query through the same handle is
// guaranteed to see the final batch.
func replayMutationsRemote(baseURL, dataset, path string, oneBased bool, stdout io.Writer) error {
	batches, err := readMutationFile(path, oneBased)
	if err != nil {
		return err
	}
	c := client.New(baseURL)
	ds := c.Dataset(dataset)
	ctx := context.Background()
	fmt.Fprintf(stdout, "replaying %d mutation batch(es) from %s against %s\n", len(batches), path, baseURL)
	for bi, batch := range batches {
		req := client.MutateRequest{Wait: true}
		for _, op := range batch {
			p := [2]int{op.u, op.v}
			if op.insert {
				req.Insert = append(req.Insert, p)
			} else {
				req.Delete = append(req.Delete, p)
			}
		}
		res, err := ds.Mutate(ctx, req)
		if err != nil {
			return fmt.Errorf("batch %d: %w", bi+1, err)
		}
		if !res.Applied {
			fmt.Fprintf(stdout, "batch %d: no net change\n", bi+1)
			continue
		}
		mode := "maintained"
		switch {
		case res.FellBack:
			mode = "recomputed (fallback)"
		case !res.Maintained:
			mode = "applied (no decomposition)"
		}
		fmt.Fprintf(stdout, "batch %d: +%d -%d edges -> version %d, %s in %dms (candidates %d, φ changes %d)\n",
			bi+1, res.Inserted, res.Deleted, res.Version, mode, res.ApplyMS, res.Candidates, res.ChangedPhi)
	}
	info, err := ds.Get(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "final graph: |U|=%d |L|=%d |E|=%d at version %d, max bitruss %d\n",
		info.Upper, info.Lower, info.Edges, info.Version, info.MaxPhi)
	return nil
}

type mutOp struct {
	insert bool
	u, v   int
}

// readMutationFile parses the -mutate replay format into batches.
func readMutationFile(path string, oneBased bool) ([][]mutOp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var batches [][]mutOp
	var cur []mutOp
	flush := func() {
		if len(cur) > 0 {
			batches = append(batches, cur)
			cur = nil
		}
	}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "" || text == "---":
			flush()
			continue
		case strings.HasPrefix(text, "%") || strings.HasPrefix(text, "#"):
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 || (fields[0] != "+" && fields[0] != "-") {
			return nil, fmt.Errorf("%w: %s:%d: want '+ u v' or '- u v', got %q", ErrUsage, path, line, text)
		}
		u, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%w: %s:%d: %v", ErrUsage, path, line, err)
		}
		v, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("%w: %s:%d: %v", ErrUsage, path, line, err)
		}
		if oneBased {
			u--
			v--
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("%w: %s:%d: negative vertex after base adjustment", ErrUsage, path, line)
		}
		cur = append(cur, mutOp{insert: fields[0] == "+", u: u, v: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return batches, nil
}

// writeCommunities prints the k-bitruss communities through the
// level-indexed hierarchy index — the same answer path the engine and
// bitserved use.
func writeCommunities(stdout io.Writer, g *bigraph.Graph, phi []int64, k int64, top int) {
	ix := community.NewIndex(g, phi)
	total := ix.NumCommunities(k)
	cs := ix.TopCommunities(k, top)
	fmt.Fprintf(stdout, "communities: %d at level %d", total, k)
	if len(cs) < total {
		fmt.Fprintf(stdout, " (showing %d largest)", len(cs))
	}
	fmt.Fprintln(stdout)
	nl := g.NumLower()
	for i := range cs {
		c := &cs[i]
		fmt.Fprintf(stdout, "  #%d: %d edges, %d upper x %d lower  upper[0]=%d lower[0]=%d\n",
			i, len(c.Edges), len(c.Upper), len(c.Lower), int(c.Upper[0])-nl, c.Lower[0])
	}
}

func writePhi(path string, g *bigraph.Graph, phi []int64, oneBased bool, stdout io.Writer) error {
	var w *bufio.Writer
	if path == "-" {
		w = bufio.NewWriter(stdout)
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	base := 0
	if oneBased {
		base = 1
	}
	nl := int32(g.NumLower())
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		ed := g.Edge(e)
		fmt.Fprintf(w, "%d %d %d\n", int(ed.U-nl)+base, int(ed.V)+base, phi[e])
	}
	return w.Flush()
}

// BGGen implements the `bggen` tool: generate synthetic graphs.
func BGGen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bggen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "uniform", "uniform, zipf, zipf+bg, blocks, bloomchain, or dataset")
	nu := fs.Int("nu", 1000, "upper-layer vertices")
	nl := fs.Int("nl", 1000, "lower-layer vertices")
	m := fs.Int("m", 10000, "edges to draw (duplicates merged)")
	su := fs.Float64("su", 1.2, "zipf exponent, upper layer")
	sl := fs.Float64("sl", 1.2, "zipf exponent, lower layer")
	blocks := fs.String("blocks", "", "planted blocks as UxLxD comma list (blocks model)")
	bg := fs.Int("bg", 0, "background edges (blocks and zipf+bg models)")
	chain := fs.Int("chain", 4, "number of blooms (bloomchain model)")
	k := fs.Int("k", 8, "bloom number (bloomchain model)")
	name := fs.String("name", "", "dataset stand-in name (dataset model)")
	scale := fs.Float64("scale", 1.0, "dataset scale (dataset model)")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "", "output file (required; .bg = binary)")
	oneBased := fs.Bool("one-based", false, "write 1-based text ids")
	stream := fs.Bool("stream", false, "stream edges straight to -out without materializing the graph (uniform, zipf, zipf+bg; flat memory at any -m)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		fmt.Fprintln(stderr, "bggen: -out is required")
		return ErrUsage
	}
	if *stream {
		return bgGenStream(*model, *nu, *nl, *m, *su, *sl, *bg, *seed, *out, *oneBased, stdout)
	}

	var g *bigraph.Graph
	switch *model {
	case "uniform":
		g = gen.Uniform(*nu, *nl, *m, *seed)
	case "zipf":
		g = gen.Zipf(*nu, *nl, *m, *su, *sl, *seed)
	case "zipf+bg":
		g = gen.ZipfPlusUniform(*nu, *nl, *m, *su, *sl, *bg, *seed)
	case "blocks":
		cfg, err := ParseBlocks(*blocks)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrUsage, err)
		}
		g = gen.Blocks(*nu, *nl, cfg, *bg, *seed)
	case "bloomchain":
		g = gen.BloomChain(*chain, *k)
	case "dataset":
		d, ok := exp.ByName(*name)
		if !ok {
			return fmt.Errorf("%w: unknown dataset %q", ErrUsage, *name)
		}
		g = d.Build(*scale)
	default:
		return fmt.Errorf("%w: unknown model %q", ErrUsage, *model)
	}

	if err := dataio.SaveFile(*out, g, dataio.TextOptions{OneBased: *oneBased}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: |U|=%d |L|=%d |E|=%d\n", *out, g.NumUpper(), g.NumLower(), g.NumEdges())
	return nil
}

// bgGenStream is the -stream path of bggen: edges go from the
// generator's emit callback straight into an EdgeFileWriter, so the
// peak footprint is one write buffer regardless of -m. Only the models
// with streaming generators qualify; duplicates among the drawn edges
// are merged at load time (exactly as the materialized path merges
// them at build time), so a streamed file loads to the same graph.
func bgGenStream(model string, nu, nl, m int, su, sl float64, bg int, seed int64, out string, oneBased bool, stdout io.Writer) error {
	total := m
	if model == "zipf+bg" {
		total = m + bg
	}
	w, err := dataio.NewEdgeFileWriter(out, nu, nl, total, dataio.TextOptions{OneBased: oneBased})
	if err != nil {
		return err
	}
	emit := func(u, v int) {
		// Errors latch in the writer and surface at Close; the draw loop
		// must keep running regardless to stay aligned with the model's
		// deterministic RNG sequence.
		_ = w.Add(u, v)
	}
	switch model {
	case "uniform":
		gen.StreamUniform(nu, nl, m, seed, emit)
	case "zipf":
		gen.StreamZipf(nu, nl, m, su, sl, seed, emit)
	case "zipf+bg":
		gen.StreamZipfPlusUniform(nu, nl, m, su, sl, bg, seed, emit)
	default:
		w.Close()
		os.Remove(out)
		return fmt.Errorf("%w: model %q cannot stream (use uniform, zipf or zipf+bg)", ErrUsage, model)
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "streamed %s: |U|=%d |L|=%d %d edge rows (duplicates merge at load)\n", out, nu, nl, w.Added())
	return nil
}

// ParseBlocks parses a "UxLxD,UxLxD" planted-block specification.
func ParseBlocks(spec string) ([]gen.BlockConfig, error) {
	if spec == "" {
		return nil, errors.New("blocks model needs -blocks UxLxD[,UxLxD...]")
	}
	var out []gen.BlockConfig
	for _, part := range strings.Split(spec, ",") {
		var b gen.BlockConfig
		if _, err := fmt.Sscanf(part, "%dx%dx%f", &b.Upper, &b.Lower, &b.Density); err != nil {
			return nil, fmt.Errorf("bad block %q: %v", part, err)
		}
		if b.Upper <= 0 || b.Lower <= 0 || b.Density < 0 || b.Density > 1 {
			return nil, fmt.Errorf("bad block %q: out of range", part)
		}
		out = append(out, b)
	}
	return out, nil
}

// BGStat implements the `bgstat` tool: the Table II summary row of a
// graph file.
func BGStat(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bgstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	input := fs.String("input", "", "input graph file (required)")
	oneBased := fs.Bool("one-based", false, "treat text vertex ids as 1-based")
	phi := fs.Bool("phi", true, "also compute the maximum bitruss number (runs BiT-BU++)")
	tipFlag := fs.Bool("tip", false, "also compute the maximum tip numbers of both layers")
	mem := fs.Bool("mem", false, "print the per-structure memory table (graph, BE-index, result, community index) with bytes/edge")
	dataDir := fs.String("data-dir", "", "inspect a bitserved durability directory (snapshot generations + WAL segments) instead of a graph file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir != "" {
		return durStat(*dataDir, stdout)
	}
	if *input == "" {
		fmt.Fprintln(stderr, "bgstat: -input or -data-dir is required")
		return ErrUsage
	}
	g, err := dataio.LoadFile(*input, dataio.TextOptions{OneBased: *oneBased})
	if err != nil {
		return err
	}
	s := bigraph.ComputeStats(g)
	total, sup := butterfly.CountAndSupports(g)
	maxSup := int64(0)
	for _, v := range sup {
		if v > maxSup {
			maxSup = v
		}
	}
	fmt.Fprintf(stdout, "|E|         : %d\n", s.NumEdges)
	fmt.Fprintf(stdout, "|U|         : %d (max degree %d, isolated %d)\n", s.NumUpper, s.MaxDegUpper, s.IsolatedUppr)
	fmt.Fprintf(stdout, "|L|         : %d (max degree %d, isolated %d)\n", s.NumLower, s.MaxDegLower, s.IsolatedLowr)
	fmt.Fprintf(stdout, "butterflies : %d\n", total)
	fmt.Fprintf(stdout, "max support : %d\n", maxSup)
	fmt.Fprintf(stdout, "wedge bound : %d (counting/index cost, Lemma 6)\n", s.WedgeBound)
	var res *core.Result
	if *phi || *mem {
		res, err = core.Decompose(g, core.Options{Algorithm: core.BiTBUPlusPlus})
		if err != nil {
			return err
		}
	}
	if *phi {
		fmt.Fprintf(stdout, "max bitruss : %d (kmax bound %d)\n", res.MaxPhi, res.Metrics.KMax)
	}
	if *tipFlag {
		fmt.Fprintf(stdout, "max tip     : upper %d, lower %d\n", tip.Decompose(g, true).MaxTheta, tip.Decompose(g, false).MaxTheta)
	}
	if *mem {
		writeMemTable(stdout, g, res)
	}
	return nil
}

// writeMemTable prints the per-structure resident-size table of bgstat
// -mem: the exact bytes each accounted structure holds, per-edge cost,
// and the serving total (graph + result + community index — what a
// bitserved snapshot of this graph keeps resident; the BE-index is a
// decomposition-time structure and listed separately).
func writeMemTable(stdout io.Writer, g *bigraph.Graph, res *core.Result) {
	m := g.NumEdges()
	perEdge := func(b int64) float64 {
		if m == 0 {
			return 0
		}
		return float64(b) / float64(m)
	}
	row := func(name string, b int64) {
		fmt.Fprintf(stdout, "  %-16s %12d B  %8.2f MB  %7.1f B/edge\n", name, b, float64(b)/(1<<20), perEdge(b))
	}
	fmt.Fprintf(stdout, "memory      :\n")
	gb := g.SizeBytes()
	rb := res.SizeBytes()
	ib := community.NewIndex(g, res.Phi).SizeBytes()
	row("graph (CSR)", gb)
	row("result (φ,sup)", rb)
	row("community index", ib)
	row("serving total", gb+rb+ib)
	row("BE-index", bloom.Build(g).SizeBytes())
	// Tip state is lazily materialised by the serving engine (it joins
	// the serving total once a tip query lands on the snapshot); report
	// what it would cost.
	tu := tip.Decompose(g, true)
	tl := tip.Decompose(g, false)
	row("tip θ (lazy)", tu.SizeBytes()+tl.SizeBytes())
}

// BitBench implements the `bitbench` tool: regenerate the paper's
// evaluation.
func BitBench(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bitbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expName := fs.String("exp", "all", "experiment to run: "+strings.Join(exp.Names(), ", ")+", or all")
	scale := fs.Float64("scale", 1.0, "dataset size multiplier")
	timeout := fs.Duration("timeout", 120*time.Second, "per-decomposition budget (0 = unlimited); timed-out runs print INF")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return exp.Run(*expName, exp.Config{Scale: *scale, Timeout: *timeout, Out: stdout})
}
