package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/vfs"
)

// FuzzReplay feeds arbitrary bytes through the filesystem as a log
// segment. Replay must never panic or fail on a readable file, and the
// records it returns, re-encoded, must be exactly a prefix of the
// input: replay may stop early at a torn or corrupt frame, but it must
// never invent, reorder or alter a record.
func FuzzReplay(f *testing.F) {
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.log")
	l, err := Create(vfs.OS(), seed)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range testRecords() {
		if err := l.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	valid, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add(appendFrame(nil, Record{Version: 7}))
	path := filepath.Join(dir, "fuzz.log") // one input at a time per process
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := Replay(vfs.OS(), path)
		if err != nil {
			t.Fatalf("replay of a readable file failed: %v", err)
		}
		var enc []byte
		for _, rec := range recs {
			enc = appendFrame(enc, rec)
		}
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("%d replayed records re-encode to %d bytes that are not a prefix of the %d-byte input",
				len(recs), len(enc), len(data))
		}
	})
}

// TestHugeLengthPrefixAllocatesNothing replays a lone frame header that
// declares the largest admissible payload: the file cannot hold it, so
// replay must stop without allocating a buffer for it.
func TestHugeLengthPrefixAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxPayload)
	if err := os.WriteFile(path, hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, err := Replay(vfs.OS(), path)
	runtime.ReadMemStats(&after)
	if err != nil || len(recs) != 0 {
		t.Fatalf("replay: %v, %v", recs, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("replay allocated %d bytes for a %d-byte file", d, len(hdr))
	}
}
