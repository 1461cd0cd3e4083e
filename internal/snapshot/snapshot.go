// Package snapshot implements the durable-snapshot half of the
// durability subsystem: serialisation of a dataset's full serving
// state — graph, bitruss decomposition and maintenance metadata — in
// the BGRH container discipline (magic, versioned header, trailing
// CRC-32C over every preceding byte), and a per-dataset Store that
// writes snapshots atomically (temp file + fsync + rename through
// internal/vfs), retains the latest two for corruption fallback, and
// owns the naming of the write-ahead-log segments that cover the tail
// past each snapshot.
//
// Container layout (all little-endian, CRC-32C/Castagnoli over
// everything before the trailer):
//
//	"BSNP" | u16 version | u16 flags (0)
//	u64 graph mutation version
//	edge section (dataio.WriteEdgeSection: u32 nu, u32 nl, u64 m, pairs)
//	u8 hasResult
//	if hasResult:
//	  u16 len | algorithm name
//	  u32 workers | u32 ranges
//	  u8 hasSup
//	  m x u64 phi
//	  if hasSup: m x u64 support
//	u32 CRC-32C
//
// The edge section stores edges in edge-id order and the loader
// rebuilds the graph order-preservingly (bigraph.Restore): a mutated
// graph's ids are not (U, V)-sorted, and phi/support are indexed by
// edge id, so a sorting rebuild would silently misalign them.
//
// The community index is deliberately not serialised: it rebuilds
// deterministically from the graph and phi in a small fraction of
// decomposition time, and omitting it keeps the container's integrity
// story to two checksummed arrays.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/bigraph"
	"repro/internal/dataio"
)

const (
	magic = "BSNP"
	// version is the newest container version this build writes and the
	// largest it accepts.
	version = 1
)

// ErrFormat reports a snapshot that failed structural or checksum
// validation; the store falls back to the previous snapshot on it.
var ErrFormat = errors.New("snapshot: invalid snapshot")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Data is a dataset's durable state. Algo, Workers, Ranges, Phi and
// Sup are meaningful only when HasResult is set; Sup may be nil even
// then (maintenance recomputes supports on first use).
type Data struct {
	Graph     *bigraph.Graph
	HasResult bool
	Algo      string // algorithm name of the decomposition
	Workers   int    // fan-out the decomposition ran with
	Ranges    int
	Phi       []int64
	Sup       []int64
}

// Write serialises d as one checksummed container.
func Write(w io.Writer, d *Data) error {
	h := crc32.New(castagnoli)
	mw := io.MultiWriter(w, h)
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, version)
	hdr = binary.LittleEndian.AppendUint16(hdr, 0) // flags
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.Graph.Version()))
	if _, err := mw.Write(hdr); err != nil {
		return err
	}
	if err := dataio.WriteEdgeSection(mw, d.Graph); err != nil {
		return err
	}
	if !d.HasResult {
		if _, err := mw.Write([]byte{0}); err != nil {
			return err
		}
		return writeTrailer(w, h)
	}
	m := d.Graph.NumEdges()
	if len(d.Phi) != m || (d.Sup != nil && len(d.Sup) != m) {
		return fmt.Errorf("%w: phi/sup length disagrees with %d edges", ErrFormat, m)
	}
	if len(d.Algo) > 1<<16-1 {
		return fmt.Errorf("%w: algorithm name too long", ErrFormat)
	}
	meta := make([]byte, 0, 16+len(d.Algo))
	meta = append(meta, 1)
	meta = binary.LittleEndian.AppendUint16(meta, uint16(len(d.Algo)))
	meta = append(meta, d.Algo...)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(d.Workers))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(d.Ranges))
	hasSup := byte(0)
	if d.Sup != nil {
		hasSup = 1
	}
	meta = append(meta, hasSup)
	if _, err := mw.Write(meta); err != nil {
		return err
	}
	if err := writeInt64s(mw, d.Phi); err != nil {
		return err
	}
	if d.Sup != nil {
		if err := writeInt64s(mw, d.Sup); err != nil {
			return err
		}
	}
	return writeTrailer(w, h)
}

func writeTrailer(w io.Writer, h interface{ Sum32() uint32 }) error {
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], h.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

func writeInt64s(w io.Writer, vals []int64) error {
	buf := make([]byte, 0, 1<<13)
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
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

// orderedSink collects an edge section verbatim, preserving file order
// as edge-id order.
type orderedSink struct {
	nu, nl int
	edges  []bigraph.Edge
}

func (s *orderedSink) SetLayerSizes(nu, nl int) { s.nu, s.nl = nu, nl }
func (s *orderedSink) Grow(n int) {
	if cap(s.edges) < n {
		s.edges = make([]bigraph.Edge, 0, n)
	}
}
func (s *orderedSink) AddEdge(u, v int) {
	s.edges = append(s.edges, bigraph.Edge{U: int32(s.nl + u), V: int32(v)})
}

// Read parses one container, verifying the trailing checksum before
// constructing anything heavier than the raw arrays. Any structural
// or checksum failure returns ErrFormat.
func Read(r io.Reader) (*Data, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	h := crc32.New(castagnoli)
	tr := io.TeeReader(br, h)
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(tr, hdr); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrFormat, err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, hdr[:4])
	}
	ver := binary.LittleEndian.Uint16(hdr[4:6])
	flags := binary.LittleEndian.Uint16(hdr[6:8])
	if ver == 0 || ver > version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, ver)
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrFormat, flags)
	}
	gver := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	var sink orderedSink
	if err := dataio.ReadEdgeSection(tr, &sink); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	d := &Data{}
	var b [1]byte
	if _, err := io.ReadFull(tr, b[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated result flag: %v", ErrFormat, err)
	}
	switch b[0] {
	case 0:
	case 1:
		d.HasResult = true
		var lenBuf [2]byte
		if _, err := io.ReadFull(tr, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated metadata: %v", ErrFormat, err)
		}
		name := make([]byte, binary.LittleEndian.Uint16(lenBuf[:]))
		if _, err := io.ReadFull(tr, name); err != nil {
			return nil, fmt.Errorf("%w: truncated algorithm name: %v", ErrFormat, err)
		}
		d.Algo = string(name)
		var fan [9]byte
		if _, err := io.ReadFull(tr, fan[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated metadata: %v", ErrFormat, err)
		}
		d.Workers = int(binary.LittleEndian.Uint32(fan[0:4]))
		d.Ranges = int(binary.LittleEndian.Uint32(fan[4:8]))
		hasSup := fan[8]
		if hasSup > 1 {
			return nil, fmt.Errorf("%w: bad support flag %d", ErrFormat, hasSup)
		}
		m := len(sink.edges)
		var err error
		if d.Phi, err = readInt64s(tr, m); err != nil {
			return nil, fmt.Errorf("%w: truncated phi: %v", ErrFormat, err)
		}
		if hasSup == 1 {
			if d.Sup, err = readInt64s(tr, m); err != nil {
				return nil, fmt.Errorf("%w: truncated supports: %v", ErrFormat, err)
			}
		}
	default:
		return nil, fmt.Errorf("%w: bad result flag %d", ErrFormat, b[0])
	}
	sum := h.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated checksum: %v", ErrFormat, err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch: file has %08x, payload sums to %08x", ErrFormat, got, sum)
	}
	// Trailing garbage past the checksum means the file is not what the
	// writer produced (e.g. a torn double-write); reject it.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after checksum", ErrFormat)
	}
	g, err := bigraph.Restore(sink.nu, sink.nl, sink.edges, gver)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	d.Graph = g
	return d, nil
}

func readInt64s(r io.Reader, n int) ([]int64, error) {
	out := make([]int64, n)
	buf := make([]byte, 1<<13)
	i := 0
	for i < n {
		k := len(buf) / 8
		if n-i < k {
			k = n - i
		}
		chunk := buf[:k*8]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		for off := 0; off < len(chunk); off += 8 {
			out[i] = int64(binary.LittleEndian.Uint64(chunk[off:]))
			i++
		}
	}
	return out, nil
}
