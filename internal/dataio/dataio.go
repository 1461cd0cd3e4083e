// Package dataio reads and writes bipartite graphs in two formats:
//
//   - Text: the KONECT-style edge list the paper's datasets ship in.
//     One "u v" pair per line (1-based layer indices by convention,
//     configurable), '%' or '#' comment lines, blank lines ignored.
//     ReadText streams bytes straight into the graph builder with zero
//     allocations per edge (see stream.go); ReadTextLegacy is the
//     original scanner, kept as the differential-test reference.
//   - Binary: a compact little-endian container for large generated
//     datasets. The current format (magic "BGRH") carries a version,
//     a flags word, layer sizes, a 64-bit edge count, the u,v pairs as
//     uint32, and a trailing CRC-32C over everything before it — the
//     same envelope the snapshot format of ROADMAP item 2 will reuse.
//     The legacy checksum-free format (magic "BGR1") still reads.
//
// Both round-trip exactly through bigraph.Graph. The file-path entry
// points (LoadFile, SaveFile) additionally handle gzip transparently
// for paths ending in ".gz", as KONECT archives ship. EdgeFileWriter
// streams edges to either format without materializing a graph.
package dataio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bigraph"
)

// TextOptions controls edge-list parsing.
type TextOptions struct {
	// OneBased treats vertex indices as 1-based (KONECT convention).
	OneBased bool
}

// ErrFormat reports a malformed input file.
var ErrFormat = errors.New("dataio: malformed input")

// ReadTextLegacy parses an edge-list from r with the original
// allocate-per-line scanner (one string and one field slice per line).
// It is retained as the semantic reference for the streaming ReadText:
// the differential test pins the two byte-identical over the generator
// corpus and the fuzz seeds, and the ingest benchmark measures the
// streaming reader's speedup against it.
func ReadTextLegacy(r io.Reader, opt TextOptions) (*bigraph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var b bigraph.Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") || strings.HasPrefix(text, "#") {
			// Honour the layer-size hint WriteText emits so that graphs
			// with trailing isolated vertices round-trip exactly. Both
			// '%' (KONECT) and '#' comments may carry it; a half or
			// unparsable hint is a format error rather than a silent skip.
			nu, nl, found, err := parseLayerHint(text)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, line, err)
			}
			if found {
				b.SetLayerSizes(nu, nl)
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: line %d: want 'u v', got %q", ErrFormat, line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, line, err)
		}
		if opt.OneBased {
			u--
			v--
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("%w: line %d: negative vertex after base adjustment", ErrFormat, line)
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}

// parseLayerHint extracts the "|U|=n |L|=n" layer-size hint from a
// comment line. A comment carrying both markers is a hint and must
// parse — malformed values are reported, not silently skipped. A lone
// marker only counts as a (truncated, hence malformed) hint when the
// comment also carries the "bipartite graph" header phrase WriteText
// emits; in ordinary prose it is ignored, so third-party headers that
// merely mention |U|= stay loadable.
func parseLayerHint(text string) (nu, nl int, found bool, err error) {
	iu := strings.Index(text, "|U|=")
	il := strings.Index(text, "|L|=")
	if iu < 0 && il < 0 {
		return 0, 0, false, nil
	}
	if iu < 0 || il < 0 {
		if strings.Contains(text, "bipartite graph") {
			return 0, 0, false, fmt.Errorf("layer-size hint %q needs both |U|= and |L|=", text)
		}
		return 0, 0, false, nil
	}
	if nu, err = leadingInt(text[iu+len("|U|="):]); err != nil {
		return 0, 0, false, fmt.Errorf("layer-size hint %q: bad |U|: %v", text, err)
	}
	if nl, err = leadingInt(text[il+len("|L|="):]); err != nil {
		return 0, 0, false, fmt.Errorf("layer-size hint %q: bad |L|: %v", text, err)
	}
	return nu, nl, true, nil
}

// leadingInt parses the decimal digits prefixing s.
func leadingInt(s string) (int, error) {
	n := 0
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		n++
	}
	if n == 0 {
		return 0, errors.New("missing number")
	}
	return strconv.Atoi(s[:n])
}

// WriteText writes g as an edge list, one "u v" pair per line with
// layer-local indices, prefixed by a comment header.
func WriteText(w io.Writer, g *bigraph.Graph, opt TextOptions) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%% bipartite graph |U|=%d |L|=%d |E|=%d\n",
		g.NumUpper(), g.NumLower(), g.NumEdges()); err != nil {
		return err
	}
	base := 0
	if opt.OneBased {
		base = 1
	}
	nl := int32(g.NumLower())
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		ed := g.Edge(e)
		if _, err := fmt.Fprintf(bw, "%d %d\n", int(ed.U-nl)+base, int(ed.V)+base); err != nil {
			return err
		}
	}
	return bw.Flush()
}

const (
	// binaryMagicLegacy is the original checksum-free header: magic,
	// three uint32 (upper, lower, edges), then the records.
	binaryMagicLegacy = "BGR1"
	// binaryMagic opens the versioned container: magic, uint16 version,
	// uint16 flags (must be zero), uint32 upper, uint32 lower, uint64
	// edges, the records, and a trailing CRC-32C (Castagnoli) over every
	// byte before it.
	binaryMagic = "BGRH"
	// binaryVersion is the newest container version this build writes
	// and the largest it accepts.
	binaryVersion = 1
	// binaryHeaderSize is the v2 container header length past the magic.
	binaryHeaderSize = 2 + 2 + 4 + 4 + 8
)

// castagnoli is the CRC-32C polynomial table; hardware-accelerated on
// amd64/arm64, and the checksum SSDs and network stacks use for the
// same job.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxPregrowEdges caps how many edges a header can pre-reserve in the
// builder (8 MB). The count is read before any checksum is verified, so
// a corrupt or hostile one must not demand a large allocation before
// the payload read fails; larger graphs grow by appending.
const maxPregrowEdges = 1 << 20

// WriteBinary writes g in the versioned binary container (magic
// "BGRH"), checksummed with CRC-32C.
func WriteBinary(w io.Writer, g *bigraph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	h := crc32.New(castagnoli)
	mw := io.MultiWriter(bw, h)
	hdr := make([]byte, 0, 4+4)
	hdr = append(hdr, binaryMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, binaryVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, 0) // flags
	if _, err := mw.Write(hdr); err != nil {
		return err
	}
	if err := WriteEdgeSection(mw, g); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], h.Sum32())
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteEdgeSection writes the BGRH edge section — uint32 upper-layer
// size, uint32 lower-layer size, uint64 edge count, then the edges in
// edge-id order as (upper, lower) layer-local uint32 pairs — to w.
// It is the shared payload core of the binary container and of the
// durability snapshots (internal/snapshot), which frame it with their
// own headers and checksums.
func WriteEdgeSection(w io.Writer, g *bigraph.Graph) error {
	hdr := make([]byte, 0, 16)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(g.NumUpper()))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(g.NumLower()))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(g.NumEdges()))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	nl := int32(g.NumLower())
	buf := make([]byte, 0, 1<<13)
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		ed := g.Edge(e)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ed.U-nl))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ed.V))
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// EdgeSink receives the parsed contents of an edge section in file
// order. *bigraph.Builder satisfies it; the snapshot loader supplies
// an order-preserving sink instead.
type EdgeSink interface {
	// SetLayerSizes announces the layer sizes before any edge.
	SetLayerSizes(nUpper, nLower int)
	// Grow hints the edge count, capped at maxPregrowEdges.
	Grow(n int)
	// AddEdge delivers one edge as layer-local indices, in file order.
	AddEdge(u, v int)
}

// ReadEdgeSection parses one edge section from r into sink, validating
// that every pair is inside the declared layer sizes. Checksum
// verification is the enclosing container's job.
func ReadEdgeSection(r io.Reader, sink EdgeSink) error {
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrFormat, err)
	}
	nu := binary.LittleEndian.Uint32(hdr[0:4])
	nlr := binary.LittleEndian.Uint32(hdr[4:8])
	m := binary.LittleEndian.Uint64(hdr[8:16])
	sink.SetLayerSizes(int(nu), int(nlr))
	sink.Grow(int(min(m, maxPregrowEdges)))
	buf := make([]byte, 1<<13)
	var done uint64
	for done < m {
		n := uint64(len(buf)) / 8
		if m-done < n {
			n = m - done
		}
		chunk := buf[:n*8]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return fmt.Errorf("%w: truncated edge %d: %v", ErrFormat, done, err)
		}
		for off := 0; off < len(chunk); off += 8 {
			u := binary.LittleEndian.Uint32(chunk[off:])
			v := binary.LittleEndian.Uint32(chunk[off+4:])
			if u >= nu || v >= nlr {
				return fmt.Errorf("%w: edge %d out of range", ErrFormat, done+uint64(off/8))
			}
			sink.AddEdge(int(u), int(v))
		}
		done += n
	}
	return nil
}

// ReadBinary parses either binary container, dispatching on the magic:
// "BGRH" payloads are checksum-verified, legacy "BGR1" payloads load
// as before.
func ReadBinary(r io.Reader) (*bigraph.Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrFormat, err)
	}
	switch string(magic) {
	case binaryMagicLegacy:
		return readBinaryLegacy(br)
	case binaryMagic:
		return readBinaryV2(br, magic)
	}
	return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, magic)
}

// readBinaryLegacy parses the checksum-free "BGR1" payload after its
// magic.
func readBinaryLegacy(br *bufio.Reader) (*bigraph.Graph, error) {
	var nu, nlr, m uint32
	for _, p := range []*uint32{&nu, &nlr, &m} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: truncated header: %v", ErrFormat, err)
		}
	}
	var b bigraph.Builder
	b.SetLayerSizes(int(nu), int(nlr))
	b.Grow(int(min(m, maxPregrowEdges)))
	buf := make([]byte, 8)
	for i := uint32(0); i < m; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated edge %d: %v", ErrFormat, i, err)
		}
		u := binary.LittleEndian.Uint32(buf[0:4])
		v := binary.LittleEndian.Uint32(buf[4:8])
		if u >= nu || v >= nlr {
			return nil, fmt.Errorf("%w: edge %d out of range", ErrFormat, i)
		}
		b.AddEdge(int(u), int(v))
	}
	return b.Build()
}

// readBinaryV2 parses the versioned "BGRH" payload after its magic and
// verifies the trailing CRC-32C (which covers the magic too).
func readBinaryV2(br *bufio.Reader, magic []byte) (*bigraph.Graph, error) {
	h := crc32.New(castagnoli)
	h.Write(magic)
	tr := io.TeeReader(br, h)
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(tr, hdr); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrFormat, err)
	}
	ver := binary.LittleEndian.Uint16(hdr[0:2])
	flags := binary.LittleEndian.Uint16(hdr[2:4])
	if ver == 0 || ver > binaryVersion {
		return nil, fmt.Errorf("%w: unsupported binary version %d", ErrFormat, ver)
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w: unknown header flags %#x", ErrFormat, flags)
	}
	var b bigraph.Builder
	if err := ReadEdgeSection(tr, &b); err != nil {
		return nil, err
	}
	sum := h.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated checksum: %v", ErrFormat, err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch: file has %08x, payload sums to %08x", ErrFormat, got, sum)
	}
	return b.Build()
}

// LoadFile reads a graph, selecting the format from the file
// extension: ".bg" binary, anything else text. A trailing ".gz" is
// decompressed transparently (KONECT archives ship gzipped edge
// lists), with the inner extension selecting the format — so
// "out.konect.gz" parses as text and "big.bg.gz" as binary.
func LoadFile(path string, opt TextOptions) (*bigraph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	inner := path
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(bufio.NewReader(f))
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrFormat, path, err)
		}
		defer zr.Close()
		r = zr
		inner = strings.TrimSuffix(path, ".gz")
	}
	if strings.HasSuffix(inner, ".bg") {
		return ReadBinary(r)
	}
	return ReadText(r, opt)
}

// SaveFile writes a graph, selecting the format from the file
// extension like LoadFile: ".bg" binary, anything else text, with a
// trailing ".gz" adding gzip compression.
func SaveFile(path string, g *bigraph.Graph, opt TextOptions) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	var w io.Writer = f
	inner := path
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(f)
		defer func() {
			if cerr := zw.Close(); err == nil {
				err = cerr
			}
		}()
		w = zw
		inner = strings.TrimSuffix(path, ".gz")
	}
	if strings.HasSuffix(inner, ".bg") {
		err = WriteBinary(w, g)
		return err
	}
	err = WriteText(w, g, opt)
	return err
}
