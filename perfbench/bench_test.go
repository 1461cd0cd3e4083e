package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// inputsOf generates the resident graph's edge file and the write and
// read plans for seed, as set-up does.
func inputsOf(t *testing.T, seed int64) (file, plan, reads []byte) {
	t.Helper()
	spec := residentSpec(seed)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := spec.writeFile(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.graph()
	p, pool := writePlan(g, writeBatches, seed)
	if plan, err = json.Marshal(p); err != nil {
		t.Fatal(err)
	}
	if reads, err = json.Marshal(readPlan(1000, seed, pool, g.NumUpper(), g.NumLower())); err != nil {
		t.Fatal(err)
	}
	return file, plan, reads
}

func TestInputsFollowTheSeed(t *testing.T) {
	f1, p1, r1 := inputsOf(t, 7)
	f2, p2, r2 := inputsOf(t, 7)
	if !bytes.Equal(f1, f2) || !bytes.Equal(p1, p2) || !bytes.Equal(r1, r2) {
		t.Fatal("the same seed produced different inputs")
	}
	f3, p3, r3 := inputsOf(t, 8)
	if bytes.Equal(f1, f3) || bytes.Equal(p1, p3) || bytes.Equal(r1, r3) {
		t.Fatal("a different seed produced an identical edge file, write plan or read plan")
	}
}

func TestWritePlanChangesTheGraphEveryBatch(t *testing.T) {
	g := residentSpec(3).graph()
	plan, pool := writePlan(g, writeBatches, 3)
	if len(plan) != writeBatches || writeBatches < 100 {
		t.Fatalf("%d batches, want %d (at least 100)", len(plan), writeBatches)
	}
	if writeBatches%snapshotEvery == 0 {
		t.Fatal("the writes end on a snapshot, leaving no WAL tail to replay")
	}
	nl := g.NumLower()
	edges := map[[2]int]bool{}
	for _, e := range g.Edges() {
		edges[[2]int{int(e.U) - nl, int(e.V)}] = true
	}
	for _, p := range pool {
		if !edges[p] {
			t.Fatalf("φ read pool holds %v, which is not a base edge", p)
		}
	}
	touched := map[[2]int]bool{}
	for i, b := range plan {
		if len(b.Insert)+len(b.Delete) == 0 {
			t.Fatalf("batch %d is empty", i)
		}
		for _, p := range b.Insert {
			if edges[p] {
				t.Fatalf("batch %d inserts %v, which is present", i, p)
			}
			edges[p] = true
			touched[p] = true
		}
		for _, p := range b.Delete {
			if !edges[p] {
				t.Fatalf("batch %d deletes %v, which is absent", i, p)
			}
			delete(edges, p)
			touched[p] = true
		}
	}
	for _, p := range pool {
		if touched[p] {
			t.Fatalf("φ read pool holds %v, which the writer changes", p)
		}
	}
}

func TestOpenLoopChargesFromTheDueTime(t *testing.T) {
	const interval = 10 * time.Millisecond
	const stall = 80 * time.Millisecond
	start := time.Now()
	ts := schedule(context.Background(), start, 6, interval, false, func(i int) {
		if i == 1 {
			time.Sleep(stall) // a stalled server: everything due meanwhile queues
		}
	})
	if len(ts) != 6 {
		t.Fatalf("%d timings, want 6", len(ts))
	}
	for i, tm := range ts {
		if tm.Due != time.Duration(i)*interval {
			t.Fatalf("operation %d due at %v, want %v", i, tm.Due, time.Duration(i)*interval)
		}
		if tm.Sent < tm.Due || tm.Done < tm.Sent {
			t.Fatalf("operation %d: due %v, sent %v, done %v out of order", i, tm.Due, tm.Sent, tm.Done)
		}
	}
	stallEnd := ts[1].Done
	for i := 2; i < 6; i++ {
		// Queued behind the stall: sent only after it ended, and the
		// wait counts against the operation.
		if ts[i].Sent < stallEnd {
			t.Fatalf("operation %d sent at %v, before the stall ended at %v", i, ts[i].Sent, stallEnd)
		}
		if want := stallEnd - ts[i].Due; ts[i].latency() < want {
			t.Fatalf("operation %d latency %v, want at least %v (charged from its due time)", i, ts[i].latency(), want)
		}
	}
	if ts[2].lag() < stall-2*interval {
		t.Fatalf("lag %v of the first queued operation does not show the stall", ts[2].lag())
	}
}

func TestPacedLoopDueNoEarlierThanThePreviousAck(t *testing.T) {
	const interval = 10 * time.Millisecond
	const stall = 60 * time.Millisecond
	ts := schedule(context.Background(), time.Now(), 5, interval, true, func(i int) {
		if i == 1 {
			time.Sleep(stall)
		}
	})
	if len(ts) != 5 {
		t.Fatalf("%d timings, want 5", len(ts))
	}
	if ts[0].Due != 0 || ts[1].Due != interval {
		t.Fatalf("on-pace operations due at %v and %v, want 0 and %v", ts[0].Due, ts[1].Due, interval)
	}
	if ts[1].latency() < stall {
		t.Fatalf("stalled operation latency %v, want at least %v", ts[1].latency(), stall)
	}
	// Operation 2 was scheduled at 20ms, but a client with one write
	// outstanding only wants it once operation 1 answered.
	if ts[2].Due != ts[1].Done {
		t.Fatalf("operation 2 due at %v, want the previous ack %v", ts[2].Due, ts[1].Done)
	}
	for i := 2; i < 5; i++ {
		if ts[i].latency() > stall/2 {
			t.Fatalf("operation %d latency %v: the stall was charged to it", i, ts[i].latency())
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 50, 50, true},
		{100, 90, 90, true},  // ten samples beyond
		{100, 91, 0, false},  // nine beyond
		{99, 90, 0, false},   // rank 90 of 99 leaves nine
		{0, 50, 0, false},    // no samples
		{100, 100, 0, false}, // p100 has nothing beyond it
	} {
		got, ok := percentile(xs[:c.n], c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Fatalf("percentile(n=%d, p%g) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if _, ok := percentile(big, 99); !ok {
		t.Fatal("p99 of 1000 samples (ten beyond) unsupported")
	}
	if _, ok := percentile(big[:999], 99); ok {
		t.Fatal("p99 of 999 samples (nine beyond) reported")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "ready", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "scan", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "build", Start: 30 * ms, End: 60 * ms}, // overlaps scan
		{ID: 4, Parent: 1, Name: "scan", Start: 90 * ms, End: 120 * ms}, // runs past its parent
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// Children cover 10..60 and 90..100 of ready's 0..100.
	if d := got["ready"].Self; d < 0.0399 || d > 0.0401 {
		t.Fatalf("ready self time %v s, want 0.04", d)
	}
	if got["scan"].Calls != 2 || got["scan"].Total < 0.0599 || got["scan"].Total > 0.0601 {
		t.Fatalf("scan: %+v, want 2 calls totalling 0.06 s", got["scan"])
	}
}

func TestLevelReadsAskAtOrAboveTheMedian(t *testing.T) {
	levels := make([]int64, 40)
	for i := range levels {
		levels[i] = int64(3 * (i + 1))
	}
	mid := levels[len(levels)/2]
	ops := resolveLevels(readPlan(2000, 5, [][2]int{{0, 0}}, 10, 10), levels)
	atMid, above, levelReads := 0, 0, 0
	for _, op := range ops {
		switch op.Kind {
		case readCommunities, readCommunityOf, readKBitruss:
			levelReads++
			switch {
			case op.K == mid:
				atMid++
			case op.K > mid:
				above++
			default:
				t.Fatalf("%s read at k=%d, below the median level %d", op.Kind, op.K, mid)
			}
		}
	}
	if atMid < levelReads/3 || above < levelReads/3 {
		t.Fatalf("%d level reads: %d at the median, %d above; want about half each", levelReads, atMid, above)
	}
}

func TestTooShortARunIsRejected(t *testing.T) {
	var stderr bytes.Buffer
	args := []string{"--workload", "ready-skew", "--seconds", fmt.Sprint(minSeconds - 1), "--root", t.TempDir()}
	if code := mainErr(args, io.Discard, &stderr); code != 2 {
		t.Fatalf("exit code %d for --seconds %d, want 2", code, minSeconds-1)
	}
	// minSeconds is the shortest run whose reads support read_p99_ms.
	if _, ok := percentile(make([]float64, minSeconds*readsPerSec), 99); !ok {
		t.Fatalf("%d s of reads do not support a p99", minSeconds)
	}
	if _, ok := percentile(make([]float64, (minSeconds-1)*readsPerSec), 99); ok {
		t.Fatalf("%d s of reads support a p99, so minSeconds %d is too strict", minSeconds-1, minSeconds)
	}
}
