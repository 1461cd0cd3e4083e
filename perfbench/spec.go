package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bigraph"
	"repro/internal/butterfly"
	"repro/internal/dataio"
	"repro/internal/gen"
)

// graphSpec names one generated graph: the generator, its shape and
// the seed. The program under test only ever sees the edge file the
// spec writes; the checks rebuild the graph in memory from the spec.
type graphSpec struct {
	Model  string  `json:"model"` // "zipf" or "uniform"
	NUpper int     `json:"n_upper"`
	NLower int     `json:"n_lower"`
	M      int     `json:"m"`
	SUpper float64 `json:"s_upper,omitempty"`
	SLower float64 `json:"s_lower,omitempty"`
	Seed   int64   `json:"seed"`
}

func zipfSpec(nu, nl, m int, su, sl float64, seed int64) graphSpec {
	return graphSpec{Model: "zipf", NUpper: nu, NLower: nl, M: m, SUpper: su, SLower: sl, Seed: seed}
}

func uniformSpec(nu, nl, m int, seed int64) graphSpec {
	return graphSpec{Model: "uniform", NUpper: nu, NLower: nl, M: m, Seed: seed}
}

func (s graphSpec) String() string {
	if s.Model == "zipf" {
		return fmt.Sprintf("gen.Zipf(%d, %d, %d, %g, %g, %d)", s.NUpper, s.NLower, s.M, s.SUpper, s.SLower, s.Seed)
	}
	return fmt.Sprintf("gen.StreamUniform(%d, %d, %d, %d)", s.NUpper, s.NLower, s.M, s.Seed)
}

// stream hands the spec's edges to emit in generation order
// (duplicates included; the graph builder merges them).
func (s graphSpec) stream(emit func(u, v int)) {
	if s.Model == "zipf" {
		gen.StreamZipf(s.NUpper, s.NLower, s.M, s.SUpper, s.SLower, s.Seed, emit)
		return
	}
	gen.StreamUniform(s.NUpper, s.NLower, s.M, s.Seed, emit)
}

// graph builds the spec's graph in memory, bypassing the edge file and
// the server's ingest path.
func (s graphSpec) graph() *bigraph.Graph {
	if s.Model == "zipf" {
		return gen.Zipf(s.NUpper, s.NLower, s.M, s.SUpper, s.SLower, s.Seed)
	}
	return gen.Uniform(s.NUpper, s.NLower, s.M, s.Seed)
}

// writeFile writes the spec's edges as a text edge list.
func (s graphSpec) writeFile(path string) error {
	w, err := dataio.NewEdgeFileWriter(path, s.NUpper, s.NLower, s.M, dataio.TextOptions{})
	if err != nil {
		return err
	}
	s.stream(func(u, v int) {
		// Add's error is sticky and reported again by Close.
		_ = w.Add(u, v)
	})
	return w.Close()
}

// Write plan shape. Every batch changes the graph (so each ack is a new
// version and no batch is a no-op), the writer keeps one outstanding,
// and the count leaves a WAL tail behind the last snapshot.
const (
	writeBatches  = 104 // >= 100 so p90 has ten acks beyond it
	edgesPerBatch = 4
)

// batch is one wait:true mutation request.
type batch struct {
	Insert [][2]int `json:"insert,omitempty"`
	Delete [][2]int `json:"delete,omitempty"`
}

// writePlan derives the writer's fixed batch sequence from the resident
// graph and the seed. Batches cycle through three kinds: inserts of new
// edges between low-degree vertices, deletes of existing edges at a
// hub, and re-inserts of the edges the previous delete removed, so the
// graph stays near its starting shape. It also returns the base edges
// the plan never touches (the pool φ reads draw from).
func writePlan(g *bigraph.Graph, n int, seed int64) ([]batch, [][2]int) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	nl := g.NumLower()
	deg := func(v int32) int32 { return g.Degree(v) }

	// Hub-adjacent edges: an endpoint among the top 1% of its layer by
	// degree, and a butterfly support of 1 to 10. Such a delete changes
	// supports, so maintenance re-peels, but its closure stays local. A
	// hub edge of support in the hundreds or more drags over half the
	// graph into the closure and trips the full re-decomposition fallback
	// (0.2-0.4 s here, and as long again for its re-insert); reads beside those
	// epochs made up the whole p99, which then doubled from one seed to
	// the next, so the writer leaves such edges alone.
	hubCut := func(lo, hi int) int32 {
		ds := make([]int, 0, hi-lo)
		for v := lo; v < hi; v++ {
			ds = append(ds, int(deg(int32(v))))
		}
		sort.Sort(sort.Reverse(sort.IntSlice(ds)))
		return int32(ds[len(ds)/100])
	}
	cutL, cutU := hubCut(0, nl), hubCut(nl, g.NumVertices())
	sup := butterfly.EdgeSupports(g)
	var hubEdges [][2]int
	for id, e := range g.Edges() {
		if (deg(e.U) >= cutU || deg(e.V) >= cutL) && sup[id] >= 1 && sup[id] <= 10 {
			hubEdges = append(hubEdges, [2]int{int(e.U) - nl, int(e.V)})
		}
	}
	rng.Shuffle(len(hubEdges), func(i, j int) { hubEdges[i], hubEdges[j] = hubEdges[j], hubEdges[i] })

	// Peripheral vertices: degree 1 or 2 in their layer.
	var lowU, lowL []int
	for v := 0; v < nl; v++ {
		if d := deg(int32(v)); d >= 1 && d <= 2 {
			lowL = append(lowL, v)
		}
	}
	for u := 0; u < g.NumUpper(); u++ {
		if d := deg(int32(nl + u)); d >= 1 && d <= 2 {
			lowU = append(lowU, u)
		}
	}
	fresh := map[[2]int]bool{}
	newEdge := func() [2]int {
		for {
			p := [2]int{lowU[rng.Intn(len(lowU))], lowL[rng.Intn(len(lowL))]}
			if !fresh[p] && g.EdgeID(int32(nl+p[0]), int32(p[1])) < 0 {
				fresh[p] = true
				return p
			}
		}
	}

	touched := map[[2]int]bool{}
	plan := make([]batch, 0, n)
	var lastDeleted [][2]int
	nextHub := 0
	for i := 0; i < n; i++ {
		var b batch
		switch i % 3 {
		case 0:
			for j := 0; j < edgesPerBatch; j++ {
				b.Insert = append(b.Insert, newEdge())
			}
		case 1:
			for j := 0; j < edgesPerBatch && nextHub < len(hubEdges); j++ {
				p := hubEdges[nextHub]
				nextHub++
				b.Delete = append(b.Delete, p)
				touched[p] = true
			}
			lastDeleted = b.Delete
			if len(b.Delete) == 0 { // hub pool exhausted: insert instead
				for j := 0; j < edgesPerBatch; j++ {
					b.Insert = append(b.Insert, newEdge())
				}
			}
		case 2:
			b.Insert = lastDeleted
			lastDeleted = nil
			if len(b.Insert) == 0 {
				b.Insert = [][2]int{newEdge()}
			}
		}
		plan = append(plan, b)
	}
	var untouched [][2]int
	for _, e := range g.Edges() {
		p := [2]int{int(e.U) - nl, int(e.V)}
		if !touched[p] {
			untouched = append(untouched, p)
		}
	}
	return plan, untouched
}

// Read kinds of the open-loop mix.
const (
	readLevels      = "levels"
	readCommunities = "communities"
	readKBitruss    = "kbitruss"
	readPhi         = "phi"
	readCommunityOf = "community_of"
)

// readMix is bitload's default mix (cli.DefaultLoadMix: levels 2,
// communities 5, kbitruss 3, phi 2) with community_of added at the
// weight of the other point lookup, phi.
var readMix = []struct {
	kind   string
	weight int
}{
	{readLevels, 2},
	{readCommunities, 5},
	{readKBitruss, 3},
	{readPhi, 2},
	{readCommunityOf, 2},
}

// readOp is one planned read. Rank picks the bitruss level a
// level-addressed read asks for; resolveLevels maps it to K once the
// starting decomposition's levels are known.
type readOp struct {
	Kind   string `json:"kind"`
	Rank   int    `json:"rank,omitempty"`
	K      int64  `json:"k,omitempty"`
	U      int    `json:"u,omitempty"`
	V      int    `json:"v,omitempty"`
	Upper  bool   `json:"upper,omitempty"`
	Vertex int    `json:"vertex,omitempty"`
}

// communitiesTop is the page size of the communities reads; it matches
// the server's pre-warmed page.
const communitiesTop = 10

// readPlan draws n reads from the seed: level ranks for the level-
// addressed reads, φ of edges the writer never touches, and
// community_of probes of uniformly drawn vertices.
func readPlan(n int, seed int64, pool [][2]int, nUpper, nLower int) []readOp {
	rng := rand.New(rand.NewSource(seed ^ 0x4ead))
	total := 0
	for _, m := range readMix {
		total += m.weight
	}
	ops := make([]readOp, n)
	for i := range ops {
		r := rng.Intn(total)
		kind := readMix[len(readMix)-1].kind
		for _, m := range readMix {
			if r < m.weight {
				kind = m.kind
				break
			}
			r -= m.weight
		}
		op := readOp{Kind: kind}
		switch kind {
		case readCommunities, readKBitruss:
			op.Rank = rng.Intn(1 << 30)
		case readPhi:
			p := pool[rng.Intn(len(pool))]
			op.U, op.V = p[0], p[1]
		case readCommunityOf:
			op.Rank = rng.Intn(1 << 30)
			op.Upper = rng.Intn(2) == 0
			if op.Upper {
				op.Vertex = rng.Intn(nUpper)
			} else {
				op.Vertex = rng.Intn(nLower)
			}
		}
		ops[i] = op
	}
	return ops
}

// resolveLevels returns the plan with each level rank mapped onto the
// given ascending levels. Half of the level-addressed reads ask at the
// median level, the one bitload queries by default; the other half at
// a level drawn from the upper half, at or above the median. Levels
// below the median are left out: the bitruss hierarchy of these skewed
// graphs is one nested core, so a low level answers with most of the
// graph (k = 1 with three quarters of its edges, twice the median
// level's answer), and on one read connection such answers would queue
// the reads behind them and set the whole latency tail.
func resolveLevels(ops []readOp, levels []int64) []readOp {
	out := append([]readOp(nil), ops...)
	if len(levels) == 0 {
		return out
	}
	mid := len(levels) / 2
	for i := range out {
		switch out[i].Kind {
		case readCommunities, readCommunityOf, readKBitruss:
			if rank := out[i].Rank; rank%2 == 0 {
				out[i].K = levels[mid]
			} else {
				out[i].K = levels[mid+rank/2%(len(levels)-mid)]
			}
		}
	}
	return out
}
