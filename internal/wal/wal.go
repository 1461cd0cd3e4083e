// Package wal implements the per-dataset write-ahead log of the
// durability subsystem: an append-only file of length-prefixed,
// CRC-32C-framed records, one per applied mutation batch, fsynced
// before the batch's snapshot publishes. Each record carries the graph
// version the batch produced and the batch's edge operations in their
// exact staged order, so replaying records through the same delta +
// maintenance path reproduces the in-memory state — including edge
// ids — byte for byte.
//
// Frame layout (all little-endian):
//
//	u32 payload length | u32 CRC-32C of the payload | payload
//
// Payload layout:
//
//	u64 version | u32 op count | ops: u8 kind (0 insert, 1 delete), u32 upper, u32 lower
//
// On open, the log replays every intact frame and truncates the file
// at the first torn or corrupt one: a crash mid-append loses only the
// unacknowledged record being written, never an earlier one. A record
// whose checksum fails is rejected along with everything after it —
// records are order-dependent (each applies to its predecessor's
// version), so nothing past a bad frame is trustworthy.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/vfs"
)

// Op is one edge mutation: the (upper, lower) layer-local pair and
// whether it deletes (true) or inserts (false) the edge.
type Op struct {
	Del  bool
	U, V uint32
}

// Record is one applied mutation batch: its operations in staged order
// and the graph version the batch produced (base version + 1).
type Record struct {
	Version int64
	Ops     []Op
}

// ErrTooLarge rejects an Append whose encoded payload exceeds the
// frame limit (a batch of ~100M ops; far beyond anything the engine
// coalesces).
var ErrTooLarge = errors.New("wal: record too large")

// ErrBroken rejects appends to a log whose previous append failed.
// Versions are assigned per published batch, so a half-durable record
// followed by a successful append could leave two different records
// claiming the same version; once an append fails, the log refuses
// further writes until reopened.
var ErrBroken = errors.New("wal: log broken by earlier append failure")

// maxPayload bounds a frame's declared payload length, so a corrupt
// length prefix cannot demand an arbitrary allocation on replay.
const maxPayload = 1 << 30

const frameHeaderSize = 8 // u32 length + u32 checksum

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an open write-ahead log. Append is not safe for concurrent
// use; the engine serialises appends under the dataset's work mutex.
type Log struct {
	fs     vfs.FS
	f      vfs.File
	path   string
	size   int64  // bytes of durable frames (end of last good append)
	broken bool   // a previous append failed; see ErrBroken
	buf    []byte // reused frame encoding buffer
}

// Create opens path for appending, creating it empty if absent. Use
// Open to recover existing records first.
func Create(fsys vfs.FS, path string) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fsys, f: f, path: path}
	if st, err := f.Stat(); err == nil {
		l.size = st.Size()
	}
	return l, nil
}

// Open reads every intact record of the log at path, truncates any
// torn or corrupt tail, and returns the log opened for appending after
// the last good record. A missing file opens as an empty log.
func Open(fsys vfs.FS, path string) (*Log, []Record, error) {
	recs, good, err := replay(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if st, err := f.Stat(); err == nil && st.Size() > good {
		// O_APPEND ignores the offset, so physically truncate the bad
		// tail before the next append lands behind it.
		if err := f.Truncate(good); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	}
	return &Log{fs: fsys, f: f, path: path, size: good}, recs, nil
}

// Replay reads the intact records of the log at path without opening
// it for writing (and without truncating a torn tail). A missing file
// reads as empty.
func Replay(fsys vfs.FS, path string) ([]Record, error) {
	recs, _, err := replay(fsys, path)
	return recs, err
}

// replay returns the intact records and the byte offset of the end of
// the last good frame.
func replay(fsys vfs.FS, path string) (recs []Record, good int64, err error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	var hdr [frameHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return recs, good, nil // clean EOF or torn header: stop here
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxPayload || int64(n) > st.Size()-good-frameHeaderSize {
			// Corrupt length, or a payload the file cannot hold: reject
			// the tail before allocating for it.
			return recs, good, nil
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, good, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, good, nil // checksum-failed record: rejected
		}
		rec, ok := decodePayload(payload)
		if !ok {
			return recs, good, nil // framing intact but payload malformed
		}
		recs = append(recs, rec)
		good += frameHeaderSize + int64(n)
	}
}

func decodePayload(p []byte) (Record, bool) {
	if len(p) < 12 {
		return Record{}, false
	}
	rec := Record{Version: int64(binary.LittleEndian.Uint64(p[0:8]))}
	nops := binary.LittleEndian.Uint32(p[8:12])
	if uint64(len(p)) != 12+uint64(nops)*9 {
		return Record{}, false
	}
	rec.Ops = make([]Op, nops)
	off := 12
	for i := range rec.Ops {
		kind := p[off]
		if kind > 1 {
			return Record{}, false
		}
		rec.Ops[i] = Op{
			Del: kind == 1,
			U:   binary.LittleEndian.Uint32(p[off+1:]),
			V:   binary.LittleEndian.Uint32(p[off+5:]),
		}
		off += 9
	}
	return rec, true
}

// Append encodes rec as one frame, writes it, and fsyncs the log. It
// returns only after the record is durable; on error the caller must
// treat the batch as not applied. A failed append truncates its
// partial frame away (best effort) and breaks the log: later appends
// return ErrBroken, so an unacknowledged half-durable record can never
// be followed by a different record reusing the same version.
func (l *Log) Append(rec Record) error {
	if l.broken {
		return ErrBroken
	}
	need := 12 + len(rec.Ops)*9
	if need > maxPayload {
		return fmt.Errorf("%w: %d ops", ErrTooLarge, len(rec.Ops))
	}
	buf := appendFrame(l.buf[:0], rec)
	l.buf = buf
	if _, err := l.f.Write(buf); err != nil {
		l.fail()
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.fail()
		return err
	}
	l.size += int64(len(buf))
	return nil
}

// appendFrame appends rec's encoded frame (header and payload) to buf.
func appendFrame(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(12+len(rec.Ops)*9))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // checksum patched below
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Version))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Ops)))
	for _, op := range rec.Ops {
		kind := byte(0)
		if op.Del {
			kind = 1
		}
		buf = append(buf, kind)
		buf = binary.LittleEndian.AppendUint32(buf, op.U)
		buf = binary.LittleEndian.AppendUint32(buf, op.V)
	}
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[start+frameHeaderSize:], castagnoli))
	return buf
}

// fail marks the log broken and tries to cut the failed frame off, so
// a live filesystem under a transient write error is left clean.
func (l *Log) fail() {
	l.broken = true
	_ = l.f.Truncate(l.size)
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }
