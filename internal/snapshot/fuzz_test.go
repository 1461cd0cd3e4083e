package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the container decoder. Read must
// never panic, must reject only with ErrFormat, and any container it
// accepts must survive Write→Read with equal fields and re-encode to
// the very bytes it was read from.
func FuzzRead(f *testing.F) {
	for _, tc := range []struct {
		mutate bool
		strip  func(*Data)
	}{
		{false, nil},
		{true, nil},
		{false, func(d *Data) {
			d.HasResult, d.Algo, d.Phi, d.Sup = false, "", nil, nil
			d.Workers, d.Ranges = 0, 0
		}},
		{true, func(d *Data) { d.Sup = nil }},
	} {
		d := testData(f, tc.mutate)
		if tc.strip != nil {
			tc.strip(d)
		}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("BSNP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("rejected without ErrFormat: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatalf("accepted container does not re-encode: %v", err)
		}
		d2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded container rejected: %v", err)
		}
		if !equalData(d, d2) {
			t.Fatal("Write→Read changed the decoded fields")
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), buf.Len())
		}
	})
}

// TestCorruptEdgeCountAllocatesLittle corrupts the edge count of a
// small container to the largest count the edge-section reader would
// pre-reserve: Read must reject the file without reserving memory for
// edges it does not hold.
func TestCorruptEdgeCountAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testData(t, false)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[24:32], 1<<26) // edge section: u32 nu, u32 nl, u64 m
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("corrupt edge count: %v, want ErrFormat", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<20 {
		t.Fatalf("Read allocated %d MB for a %d-byte file", d>>20, len(data))
	}
}
