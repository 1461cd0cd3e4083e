package main

import (
	"fmt"
	"sort"

	"repro/internal/bigraph"
	"repro/internal/core"
)

// The reference side of the output checks. Served bitruss numbers are
// compared with BiT-PC — a different algorithm from the served BiT-BU++
// — run on graphs the benchmark builds itself, and communities with a
// union-find over the definition (edges of φ >= k), never with the
// community index the server answers from.

// edgePhi is one edge with its bitruss number, layer-local.
type edgePhi struct {
	U, V int
	Phi  int64
}

// reference decomposes g with BiT-PC.
func reference(g *bigraph.Graph) (*core.Result, error) {
	res, err := core.Decompose(g, core.Options{Algorithm: core.BiTPC})
	if err != nil {
		return nil, fmt.Errorf("reference BiT-PC: %w", err)
	}
	return res, nil
}

// phiAtLeast lists g's edges of φ >= k, sorted by (u, v).
func phiAtLeast(g *bigraph.Graph, phi []int64, k int64) []edgePhi {
	nl := g.NumLower()
	var out []edgePhi
	for e, p := range phi {
		if p >= k {
			ed := g.Edge(int32(e))
			out = append(out, edgePhi{int(ed.U) - nl, int(ed.V), p})
		}
	}
	sortEdges(out)
	return out
}

func sortEdges(es []edgePhi) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
}

// diffEdges describes the first difference between two sorted edge
// lists, or returns "" when they are equal.
func diffEdges(got, want []edgePhi) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("edge %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// components labels the k-bitruss of (g, phi): the connected components
// of the edges with φ >= k.
type components struct {
	g      *bigraph.Graph
	parent []int32
	alive  []bool  // vertex has an edge of φ >= k
	edges  []int32 // root -> member edge count
	count  int     // number of components

	byRoot map[int32]commDigest // filled by digests
	all    map[commDigest]bool
}

func newComponents(g *bigraph.Graph, phi []int64, k int64) *components {
	n := g.NumVertices()
	c := &components{g: g, parent: make([]int32, n), alive: make([]bool, n), edges: make([]int32, n)}
	for i := range c.parent {
		c.parent[i] = int32(i)
	}
	for e, p := range phi {
		if p < k {
			continue
		}
		ed := g.Edge(int32(e))
		c.alive[ed.U], c.alive[ed.V] = true, true
		a, b := c.find(ed.U), c.find(ed.V)
		if a != b {
			c.parent[a] = b
		}
	}
	for e, p := range phi {
		if p >= k {
			c.edges[c.find(g.Edge(int32(e)).U)]++
		}
	}
	for v := range c.parent {
		if c.alive[v] && c.find(int32(v)) == int32(v) {
			c.count++
		}
	}
	return c
}

func (c *components) find(x int32) int32 {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

// digests returns every component's digest by root, computed in one
// pass over the vertices and kept for later calls.
func (c *components) digests() map[int32]commDigest {
	if c.byRoot != nil {
		return c.byRoot
	}
	nl := c.g.NumLower()
	upper, lower := map[int32][]int{}, map[int32][]int{}
	for v := range c.parent {
		if !c.alive[v] {
			continue
		}
		r := c.find(int32(v))
		if v >= nl {
			upper[r] = append(upper[r], v-nl)
		} else {
			lower[r] = append(lower[r], v)
		}
	}
	c.byRoot = map[int32]commDigest{}
	c.all = map[commDigest]bool{}
	for v := range c.parent {
		if r := int32(v); c.alive[v] && c.find(r) == r {
			d := commDigest{size: int(c.edges[r]), upper: digestInts(upper[r]), lower: digestInts(lower[r])}
			c.byRoot[r] = d
			c.all[d] = true
		}
	}
	return c.byRoot
}

// digest returns the digest of the component whose root is r.
func (c *components) digest(r int32) commDigest { return c.digests()[r] }

// hasDigest reports whether some component has digest d.
func (c *components) hasDigest(d commDigest) bool {
	c.digests()
	return c.all[d]
}

// ranked returns the n largest components, largest first (ties in
// arbitrary order; callers compare sizes position by position).
func (c *components) ranked(n int) []commDigest {
	var out []commDigest
	for _, d := range c.digests() {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].size > out[j].size })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// global maps a layer-local vertex to its global id, or -1 when it is
// outside the graph.
func global(g *bigraph.Graph, upper bool, v int) int32 {
	if upper {
		if v < 0 || v >= g.NumUpper() {
			return -1
		}
		return int32(g.NumLower() + v)
	}
	if v < 0 || v >= g.NumLower() {
		return -1
	}
	return int32(v)
}

// levelsOf returns the distinct bitruss numbers, ascending.
func levelsOf(phi []int64) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, p := range phi {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
