package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/client"
	"repro/internal/bigraph"
	"repro/internal/core"
)

// answer is one read's outcome, kept compact — community member lists
// are reduced to digests — so a run holds thousands without copying
// every response.
type answer struct {
	version  int64
	err      error // transport error, unexpected status or envelope violation
	notFound bool  // community_of answered not_found (carries no version)
	lo, hi   int64 // the versions a not_found answer can have come from
	phi      int64
	count    int    // levels, k-bitruss edges, or communities in total
	digest   uint64 // levels or k-bitruss edges
	comms    []commDigest
}

// commDigest is one community reduced to its size and member digests.
type commDigest struct {
	size         int
	upper, lower uint64
}

// hashInts hashes xs in order.
func hashInts(xs []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// digestInts hashes a set of ints, whatever their order.
func digestInts(xs []int) uint64 {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return hashInts(s)
}

// digestEdges hashes a sorted edge list, φ included.
func digestEdges(es []edgePhi) uint64 {
	flat := make([]int, 0, 3*len(es))
	for _, e := range es {
		flat = append(flat, e.U, e.V, int(e.Phi))
	}
	return hashInts(flat)
}

func digestLevels(ls []int64) uint64 {
	xs := make([]int, len(ls))
	for i, l := range ls {
		xs[i] = int(l)
	}
	return digestInts(xs)
}

func digestCommunity(c client.Community) commDigest {
	return commDigest{size: c.Size, upper: digestInts(c.Upper), lower: digestInts(c.Lower)}
}

// doRead issues one planned read and reduces its answer. The envelope
// is checked here: the dataset name, and the level echoed back.
func doRead(ctx context.Context, d *client.DatasetClient, op readOp) answer {
	var a answer
	switch op.Kind {
	case readLevels:
		res, err := d.Levels(ctx)
		if a.err = envelope(err, res.Dataset, d.Name()); a.err == nil {
			a.version, a.count, a.digest = res.Version, len(res.Levels), digestLevels(res.Levels)
		}
	case readCommunities:
		res, err := d.Communities(ctx, op.K, client.CommunitiesOptions{Top: communitiesTop})
		if a.err = envelope(err, res.Dataset, d.Name()); a.err == nil && res.K != op.K {
			a.err = fmt.Errorf("communities answered k=%d, asked %d", res.K, op.K)
		}
		if a.err == nil {
			a.version, a.count = res.Version, res.Total
			for _, c := range res.Communities {
				a.comms = append(a.comms, digestCommunity(c))
			}
		}
	case readKBitruss:
		res, err := d.KBitruss(ctx, op.K)
		if a.err = envelope(err, res.Dataset, d.Name()); a.err == nil {
			es := kbEdges(res)
			a.version, a.count, a.digest = res.Version, len(es), digestEdges(es)
		}
	case readPhi:
		res, err := d.Phi(ctx, op.U, op.V)
		if a.err = envelope(err, res.Dataset, d.Name()); a.err == nil {
			if res.Phi == nil || res.U != int64(op.U) || res.V != int64(op.V) {
				a.err = fmt.Errorf("φ answer for (%d, %d) without φ or for another edge", op.U, op.V)
			} else {
				a.version, a.phi = res.Version, *res.Phi
			}
		}
	case readCommunityOf:
		layer := client.Layer(layerName(op.Upper))
		res, err := d.CommunityOf(ctx, layer, op.Vertex, op.K)
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Code == client.CodeNotFound {
			a.notFound = true
			return a
		}
		if a.err = envelope(err, res.Dataset, d.Name()); a.err == nil {
			a.version = res.Version
			a.comms = []commDigest{digestCommunity(res.Community)}
		}
	default:
		a.err = fmt.Errorf("unknown read kind %q", op.Kind)
	}
	return a
}

func envelope(err error, dataset, want string) error {
	if err != nil {
		return err
	}
	if dataset != want {
		return fmt.Errorf("answer names dataset %q, want %q", dataset, want)
	}
	return nil
}

// refChain is the reference state of the resident graph, carried
// version by version through the acknowledged writes with core.Maintain
// from a BiT-PC start. The chain's final state is itself checked
// against a fresh BiT-PC decomposition.
type refChain struct {
	g       *bigraph.Graph
	res     *core.Result
	version int64
	comps   map[int64]*components // by k, for the current version
}

func newRefChain(g *bigraph.Graph, res *core.Result, version int64) *refChain {
	return &refChain{g: g, res: res, version: version, comps: map[int64]*components{}}
}

// apply advances the chain by one acknowledged batch.
func (c *refChain) apply(b batch) error {
	d := bigraph.NewDelta(c.g)
	for _, p := range b.Insert {
		d.Insert(p[0], p[1])
	}
	for _, p := range b.Delete {
		d.Delete(p[0], p[1])
	}
	g2, rm, err := d.Apply()
	if err != nil {
		return err
	}
	res2, _, err := core.Maintain(c.g, c.res, g2, rm, core.MaintainOptions{Algorithm: core.BiTPC})
	if err != nil {
		return err
	}
	c.g, c.res = g2, res2
	c.version++
	c.comps = map[int64]*components{}
	return nil
}

func (c *refChain) components(k int64) *components {
	cs, ok := c.comps[k]
	if !ok {
		cs = newComponents(c.g, c.res.Phi, k)
		c.comps[k] = cs
	}
	return cs
}

func (c *refChain) edges() []edgePhi { return phiAtLeast(c.g, c.res.Phi, 0) }

// hasCommunity reports whether the community_of probe of op has an
// answer at the chain's version.
func (c *refChain) hasCommunity(op readOp) bool {
	v := global(c.g, op.Upper, op.Vertex)
	return v >= 0 && c.components(op.K).alive[v]
}

// checkRead compares one read answered at the chain's version with the
// reference; it returns "" when the answer is right.
func (c *refChain) checkRead(op readOp, a answer) string {
	switch op.Kind {
	case readLevels:
		want := levelsOf(c.res.Phi)
		return ifne(a.count != len(want) || a.digest != digestLevels(want), "levels differ at version %d", a.version)
	case readKBitruss:
		want := phiAtLeast(c.g, c.res.Phi, op.K)
		return ifne(a.count != len(want) || a.digest != digestEdges(want), "%d-bitruss differs at version %d (%d edges, want %d)", op.K, a.version, a.count, len(want))
	case readPhi:
		e := c.g.EdgeID(global(c.g, true, op.U), int32(op.V))
		if e < 0 {
			return fmt.Sprintf("φ of (%d, %d) answered, but the edge is absent at version %d", op.U, op.V, a.version)
		}
		return ifne(a.phi != c.res.Phi[e], "φ(%d, %d) = %d at version %d, want %d", op.U, op.V, a.phi, a.version, c.res.Phi[e])
	case readCommunities:
		cs := c.components(op.K)
		if a.count != cs.count {
			return fmt.Sprintf("%d communities at k=%d, version %d, want %d", a.count, op.K, a.version, cs.count)
		}
		want := cs.ranked(communitiesTop)
		if len(a.comms) != len(want) {
			return fmt.Sprintf("page of %d communities at k=%d, want %d", len(a.comms), op.K, len(want))
		}
		for i, got := range a.comms {
			if got.size != want[i].size {
				return fmt.Sprintf("community %d at k=%d has %d edges, want %d", i, op.K, got.size, want[i].size)
			}
			if !cs.hasDigest(got) {
				return fmt.Sprintf("community %d at k=%d, version %d, is not a component of the reference", i, op.K, a.version)
			}
		}
		return ""
	case readCommunityOf:
		cs := c.components(op.K)
		v := global(c.g, op.Upper, op.Vertex)
		if v < 0 || !cs.alive[v] {
			return fmt.Sprintf("community of %s vertex %d at k=%d answered, but the reference has none at version %d", layerName(op.Upper), op.Vertex, op.K, a.version)
		}
		want := cs.digest(cs.find(v))
		return ifne(len(a.comms) != 1 || a.comms[0] != want, "community of %s vertex %d at k=%d differs at version %d", layerName(op.Upper), op.Vertex, op.K, a.version)
	}
	return "unknown read kind " + op.Kind
}

// freshReference applies the plan to the benchmark's own edge set and
// decomposes the result from scratch with BiT-PC.
func freshReference(base *bigraph.Graph, plan []batch) ([]edgePhi, error) {
	nl := base.NumLower()
	set := map[[2]int]bool{}
	for _, e := range base.Edges() {
		set[[2]int{int(e.U) - nl, int(e.V)}] = true
	}
	for _, b := range plan {
		for _, p := range b.Insert {
			set[p] = true
		}
		for _, p := range b.Delete {
			delete(set, p)
		}
	}
	var bld bigraph.Builder
	bld.SetLayerSizes(base.NumUpper(), base.NumLower())
	for p := range set {
		bld.AddEdge(p[0], p[1])
	}
	g, err := bld.Build()
	if err != nil {
		return nil, err
	}
	res, err := reference(g)
	if err != nil {
		return nil, err
	}
	return phiAtLeast(g, res.Phi, 0), nil
}
