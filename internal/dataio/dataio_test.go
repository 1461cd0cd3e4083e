package dataio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/gen"
	"repro/internal/testgraphs"
)

func sameGraph(a, b *bigraph.Graph) bool {
	if a.NumUpper() != b.NumUpper() || a.NumLower() != b.NumLower() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for e := int32(0); e < int32(a.NumEdges()); e++ {
		if a.Edge(e) != b.Edge(e) {
			return false
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	for _, oneBased := range []bool{false, true} {
		g := gen.Uniform(20, 30, 200, 1)
		var buf bytes.Buffer
		opt := TextOptions{OneBased: oneBased}
		if err := WriteText(&buf, g, opt); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		got, err := ReadText(&buf, opt)
		if err != nil {
			t.Fatalf("ReadText: %v", err)
		}
		if !sameGraph(g, got) {
			t.Errorf("oneBased=%v: round trip changed the graph", oneBased)
		}
	}
}

func TestTextCommentsAndBlankLines(t *testing.T) {
	in := `% KONECT-style header
# hash comment

1 1
1 2
2 1
`
	g, err := ReadText(strings.NewReader(in), TextOptions{OneBased: true})
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g.NumEdges() != 3 || g.NumUpper() != 2 || g.NumLower() != 2 {
		t.Errorf("parsed %d edges, layers (%d,%d)", g.NumEdges(), g.NumUpper(), g.NumLower())
	}
}

// TestLayerHintVariants: the |U|/|L| hint must work on both comment
// styles and independent of the surrounding prose; malformed hints are
// format errors, not silent skips.
func TestLayerHintVariants(t *testing.T) {
	good := []string{
		"% bipartite graph |U|=5 |L|=7 |E|=1\n0 0\n",
		"# bipartite graph |U|=5 |L|=7\n0 0\n",
		"# exported shape: |U|=5, |L|=7 (see docs)\n0 0\n",
		"%|U|=5 |L|=7\n0 0\n",
	}
	for _, in := range good {
		g, err := ReadText(strings.NewReader(in), TextOptions{})
		if err != nil {
			t.Errorf("input %q: %v", in, err)
			continue
		}
		if g.NumUpper() != 5 || g.NumLower() != 7 {
			t.Errorf("input %q: layers (%d,%d), want (5,7)", in, g.NumUpper(), g.NumLower())
		}
	}
	bad := []string{
		"% bipartite graph |U|=5\n0 0\n",       // truncated header
		"# bipartite graph |L|=7\n0 0\n",       // the other half
		"% bipartite graph |U|=x |L|=7\n0 0\n", // bad number
		"# bipartite graph |U|=5 |L|=\n0 0\n",  // missing number
		"# shape: |U|=x |L|=y\n0 0\n",          // both markers, prose values
	}
	for _, in := range bad {
		if _, err := ReadText(strings.NewReader(in), TextOptions{}); !errors.Is(err, ErrFormat) {
			t.Errorf("input %q: error = %v, want ErrFormat", in, err)
		}
	}
	// Comments that merely mention a marker in prose are not hints.
	prose := []string{
		"% just a note\n0 0\n",
		"# legend: |U|= upper layer\n0 0\n",
		"% see |L|=lower for details\n0 0\n",
	}
	for _, in := range prose {
		g, err := ReadText(strings.NewReader(in), TextOptions{})
		if err != nil || g.NumUpper() != 1 || g.NumLower() != 1 {
			t.Errorf("prose comment %q mis-handled: %v %v", in, g, err)
		}
	}
}

// TestLayerHintRoundTrip: graphs with trailing isolated vertices survive
// a write/read cycle through the emitted hint.
func TestLayerHintRoundTrip(t *testing.T) {
	var b bigraph.Builder
	b.SetLayerSizes(9, 11) // only vertices (0,0)..(2,2) get edges
	b.AddEdge(0, 0)
	b.AddEdge(1, 1)
	b.AddEdge(2, 2)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, oneBased := range []bool{false, true} {
		var buf bytes.Buffer
		opt := TextOptions{OneBased: oneBased}
		if err := WriteText(&buf, g, opt); err != nil {
			t.Fatal(err)
		}
		got, err := ReadText(&buf, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGraph(g, got) {
			t.Errorf("oneBased=%v: round trip lost the layer sizes: %v -> %v", oneBased, g, got)
		}
	}
}

func TestTextMalformed(t *testing.T) {
	cases := []string{
		"1\n",
		"a b\n",
		"1 x\n",
		"0 1\n", // 0 is invalid when one-based
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in), TextOptions{OneBased: true}); !errors.Is(err, ErrFormat) {
			t.Errorf("input %q: error = %v, want ErrFormat", in, err)
		}
	}
}

func TestTextDuplicatesMerged(t *testing.T) {
	g, err := ReadText(strings.NewReader("0 0\n0 0\n0 1\n"), TextOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := gen.Zipf(40, 50, 800, 1.3, 1.1, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !sameGraph(g, got) {
		t.Errorf("binary round trip changed the graph")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("BGR1\x01\x00"), // truncated header
		append([]byte("BGR1"), make([]byte, 12)...), // zero graph: valid, see below
	}
	for i, in := range cases[:3] {
		if _, err := ReadBinary(bytes.NewReader(in)); !errors.Is(err, ErrFormat) {
			t.Errorf("case %d: error = %v, want ErrFormat", i, err)
		}
	}
	// Empty graph is legitimate.
	g, err := ReadBinary(bytes.NewReader(cases[3]))
	if err != nil || g.NumEdges() != 0 {
		t.Errorf("empty binary graph: %v, %v", g, err)
	}
}

// TestHugeEdgeCountAllocatesLittle declares 2^26 edges in the header
// of a tiny .bg file, in both containers: the reader must reject the
// file without first reserving memory for edges it does not hold.
func TestHugeEdgeCountAllocatesLittle(t *testing.T) {
	var v2 bytes.Buffer
	if err := WriteBinary(&v2, testgraphs.Figure1()); err != nil {
		t.Fatal(err)
	}
	huge := v2.Bytes()
	binary.LittleEndian.PutUint64(huge[16:24], 1<<26) // magic, u16 version, u16 flags, u32 nu, u32 nl, u64 m
	legacy := []byte("BGR1")
	legacy = binary.LittleEndian.AppendUint32(legacy, 4)
	legacy = binary.LittleEndian.AppendUint32(legacy, 4)
	legacy = binary.LittleEndian.AppendUint32(legacy, 1<<26)
	legacy = append(legacy, make([]byte, 8*4)...)
	for name, in := range map[string][]byte{"BGRH": huge, "BGR1": legacy} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: %v, want ErrFormat", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 32<<20 {
			t.Errorf("%s: ReadBinary allocated %d MB for a %d-byte file", name, d>>20, len(in))
		}
	}
}

func TestBinaryOutOfRangeEdge(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("BGR1")
	// nu=1, nl=1, m=1 but edge (5, 0).
	buf.Write([]byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	buf.Write([]byte{5, 0, 0, 0, 0, 0, 0, 0})
	if _, err := ReadBinary(&buf); !errors.Is(err, ErrFormat) {
		t.Errorf("error = %v, want ErrFormat", err)
	}
}

func TestBinaryTruncatedEdges(t *testing.T) {
	g := testgraphs.Figure1()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(bytes.NewReader(trunc)); !errors.Is(err, ErrFormat) {
		t.Errorf("error = %v, want ErrFormat", err)
	}
}

func TestFileRoundTrips(t *testing.T) {
	dir := t.TempDir()
	g := testgraphs.Figure1()
	for _, name := range []string{"g.txt", "g.bg"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, g, TextOptions{OneBased: true}); err != nil {
			t.Fatalf("SaveFile(%s): %v", name, err)
		}
		got, err := LoadFile(path, TextOptions{OneBased: true})
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", name, err)
		}
		if !sameGraph(g, got) {
			t.Errorf("%s: file round trip changed the graph", name)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.txt"), TextOptions{}); err == nil {
		t.Errorf("missing file did not error")
	}
}
