package snapshot

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/vfs"
)

// testData builds a decomposed dataset state, optionally mutated so
// that edge ids are not (U, V)-sorted.
func testData(t testing.TB, mutate bool) *Data {
	t.Helper()
	g := gen.Uniform(40, 40, 300, 7)
	if mutate {
		d := bigraph.NewDelta(g)
		d.Insert(41, 3)
		d.Insert(0, 39)
		d.Delete(int(g.Edge(0).U)-g.NumLower(), int(g.Edge(0).V))
		g2, _, err := d.Apply()
		if err != nil {
			t.Fatal(err)
		}
		g = g2
	}
	res, err := core.Decompose(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &Data{
		Graph:     g,
		HasResult: true,
		Algo:      core.BiTBUPlusPlus.String(),
		Workers:   2,
		Ranges:    4,
		Phi:       res.Phi,
		Sup:       res.Sup,
	}
}

func equalData(a, b *Data) bool {
	return a.HasResult == b.HasResult &&
		a.Algo == b.Algo && a.Workers == b.Workers && a.Ranges == b.Ranges &&
		a.Graph.Version() == b.Graph.Version() &&
		a.Graph.NumUpper() == b.Graph.NumUpper() &&
		a.Graph.NumLower() == b.Graph.NumLower() &&
		reflect.DeepEqual(a.Graph.Edges(), b.Graph.Edges()) &&
		reflect.DeepEqual(a.Phi, b.Phi) &&
		reflect.DeepEqual(a.Sup, b.Sup)
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate bool
		strip  func(*Data)
	}{
		{"fresh", false, nil},
		{"mutated-edge-order", true, nil},
		{"no-result", false, func(d *Data) {
			d.HasResult, d.Algo, d.Phi, d.Sup = false, "", nil, nil
			d.Workers, d.Ranges = 0, 0
		}},
		{"no-sup", true, func(d *Data) { d.Sup = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := testData(t, tc.mutate)
			if tc.strip != nil {
				tc.strip(want)
			}
			var buf bytes.Buffer
			if err := Write(&buf, want); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if !equalData(got, want) {
				t.Fatalf("round trip mismatch")
			}
		})
	}
}

// TestReadRejectsCorruption flips every 97th byte in turn: a container
// with any damaged byte must fail, never decode to something wrong.
func TestReadRejectsCorruption(t *testing.T) {
	want := testData(t, true)
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for off := 0; off < len(data); off += 97 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		got, err := Read(bytes.NewReader(mut))
		if err == nil && equalData(got, want) {
			// A flip in padding-free containers must always be caught.
			t.Fatalf("corruption at byte %d decoded as identical data", off)
		}
		if err == nil {
			t.Fatalf("corruption at byte %d accepted", off)
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("corruption at byte %d: error %v is not ErrFormat", off, err)
		}
	}
	// Truncation at a few offsets must also be rejected.
	for _, cut := range []int{0, 3, 17, len(data) / 2, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); !errors.Is(err, ErrFormat) {
			t.Fatalf("truncation at %d: %v", cut, err)
		}
	}
	// As must trailing garbage.
	if _, err := Read(bytes.NewReader(append(append([]byte(nil), data...), 0))); !errors.Is(err, ErrFormat) {
		t.Fatalf("trailing garbage accepted: %v", err)
	}
}

func TestStoreSaveLoadAndRetention(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(vfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	d := testData(t, false)
	for seq := uint64(1); seq <= 4; seq++ {
		if err := st.Save(seq, d); err != nil {
			t.Fatalf("save %d: %v", seq, err)
		}
		// Segment files appear as the engine rotates; simulate.
		if err := os.WriteFile(st.WALPath(seq), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snaps, _ := st.SnapSeqs()
	if !reflect.DeepEqual(snaps, []uint64{3, 4}) {
		t.Fatalf("retention kept %v, want [3 4]", snaps)
	}
	wals, _ := st.WALSeqs()
	if !reflect.DeepEqual(wals, []uint64{3, 4}) {
		t.Fatalf("WAL retention kept %v, want [3 4]", wals)
	}
	got, seq, err := st.Load()
	if err != nil || seq != 4 || !equalData(got, d) {
		t.Fatalf("load: seq=%d err=%v", seq, err)
	}
}

func TestStoreFallsBackOnCorruptLatest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(vfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	d := testData(t, false)
	if err := st.Save(1, d); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(2, d); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest generation on disk.
	raw, err := os.ReadFile(st.SnapPath(2))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(st.SnapPath(2), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, seq, err := st.Load()
	if err != nil || seq != 1 || !equalData(got, d) {
		t.Fatalf("fallback load: seq=%d err=%v", seq, err)
	}
	// With every generation corrupt, Load must refuse.
	if err := os.WriteFile(st.SnapPath(1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("all-corrupt load: %v", err)
	}
}

func TestStoreEmptyDirHasNoSnapshot(t *testing.T) {
	st, err := Open(vfs.OS(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
}

// TestStoreSweepsTempLeftovers simulates a double crash: one crash
// abandoned snap-000002.bsnp.tmp, and the store must sweep it on open
// so it can never shadow or corrupt a later atomic write.
func TestStoreSweepsTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(vfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	d := testData(t, false)
	if err := st.Save(1, d); err != nil {
		t.Fatal(err)
	}
	leftover := st.SnapPath(2) + vfs.TmpSuffix
	if err := os.WriteFile(leftover, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(vfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("temp leftover survived reopen: %v", err)
	}
	got, seq, err := st2.Load()
	if err != nil || seq != 1 || !equalData(got, d) {
		t.Fatalf("load after sweep: seq=%d err=%v", seq, err)
	}
}

// TestSaveFaultNeverCorrupts injects each write-path fault into a
// second Save: the save must fail AND the first generation must keep
// loading — an injected fault can reduce durability, never poison it.
func TestSaveFaultNeverCorrupts(t *testing.T) {
	for name, arm := range map[string]func(*vfs.FaultFS){
		"write":  func(f *vfs.FaultFS) { f.FailWrite(1) },
		"short":  func(f *vfs.FaultFS) { f.ShortWrite(1) },
		"sync":   func(f *vfs.FaultFS) { f.FailSync(1) },
		"rename": func(f *vfs.FaultFS) { f.FailRename(1) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFault(vfs.OS())
			st, err := Open(ffs, dir)
			if err != nil {
				t.Fatal(err)
			}
			d := testData(t, false)
			if err := st.Save(1, d); err != nil {
				t.Fatal(err)
			}
			arm(ffs)
			if err := st.Save(2, d); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("faulted save: want ErrInjected, got %v", err)
			}
			ffs.Heal()
			st2, err := Open(ffs, dir)
			if err != nil {
				t.Fatal(err)
			}
			got, seq, err := st2.Load()
			if err != nil || seq != 1 || !equalData(got, d) {
				t.Fatalf("load after faulted save: seq=%d err=%v", seq, err)
			}
		})
	}
}
