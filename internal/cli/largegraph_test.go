package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/dataio"
)

// peakRSSKB reads VmHWM (the process's peak resident set) from
// /proc/self/status.
func peakRSSKB(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Logf("peak RSS unavailable: %v", err)
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			return kb
		}
	}
	return 0
}

// TestLargeGraphSmoke is the CI-guarded large-graph path: stream-write
// a 1M-edge file with bggen -stream, ingest it with the streaming
// reader, decompose with progress reporting, and hold the serving
// structures to a bytes-per-edge budget. Run with
// LARGE_SMOKE=1 go test -run TestLargeGraphSmoke -v ./internal/cli/.
func TestLargeGraphSmoke(t *testing.T) {
	if os.Getenv("LARGE_SMOKE") == "" {
		t.Skip("set LARGE_SMOKE=1 to run the 1M-edge smoke")
	}
	const (
		nu, nl = 250_000, 250_000
		draws  = 1_000_000
	)
	path := filepath.Join(t.TempDir(), "large.txt")
	var out, errw bytes.Buffer
	start := time.Now()
	if err := BGGen([]string{
		"-model", "uniform", "-nu", fmt.Sprint(nu), "-nl", fmt.Sprint(nl),
		"-m", fmt.Sprint(draws), "-seed", "42", "-stream", "-out", path,
	}, &out, &errw); err != nil {
		t.Fatalf("bggen -stream: %v (stderr: %s)", err, errw.String())
	}
	t.Logf("streamed %d draws in %v", draws, time.Since(start))

	start = time.Now()
	g, err := dataio.LoadFile(path, dataio.TextOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ingested %d edges in %v", g.NumEdges(), time.Since(start))
	if g.NumEdges() < draws*99/100 {
		t.Fatalf("ingested %d edges, want ~%d", g.NumEdges(), draws)
	}

	var progressCalls int64
	start = time.Now()
	res, err := core.Decompose(g, core.Options{
		Algorithm: core.BiTBUPlusPlus,
		Progress:  func(core.Stage, int64, int64) { progressCalls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("decomposed in %v (%d progress callbacks, maxphi %d)", time.Since(start), progressCalls, res.MaxPhi)
	// Callback volume scales with peel rounds, and a uniform graph this
	// sparse peels in very few; stage transitions alone guarantee a
	// handful. Fine-grained mid-run visibility is pinned by the
	// skew-graph jobs tests in internal/engine and internal/server.
	if progressCalls < 2 {
		t.Errorf("only %d progress callbacks over a 1M-edge decompose", progressCalls)
	}

	ci := community.NewIndex(g, res.Phi)
	m := float64(g.NumEdges())
	gb, rb, ib := g.SizeBytes(), res.SizeBytes(), ci.SizeBytes()
	perEdge := float64(gb+rb+ib) / m
	t.Logf("bytes/edge: graph %.1f, result %.1f, community %.1f, serving total %.1f",
		float64(gb)/m, float64(rb)/m, float64(ib)/m, perEdge)
	// Budget: the serving set (CSR graph + φ/support + community index)
	// stays under 96 B/edge; the probe on this shape measures ~60.
	if perEdge > 96 {
		t.Errorf("serving structures at %.1f B/edge exceed the 96 B/edge budget", perEdge)
	}
	if kb := peakRSSKB(t); kb > 0 {
		t.Logf("peak RSS %.1f MB", float64(kb)/1024)
	}
}
