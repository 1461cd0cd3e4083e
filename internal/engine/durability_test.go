package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/vfs"
)

// durableEngine builds an engine persisting under dir. A nil fsys
// selects the real filesystem.
func durableEngine(t *testing.T, dir string, every int, fsys vfs.FS) *Engine {
	t.Helper()
	e := New()
	if err := e.EnableDurability(DurabilityOptions{Dir: dir, SnapshotEvery: every, FS: fsys}); err != nil {
		t.Fatal(err)
	}
	return e
}

// dumpState captures a dataset's externally observable durable state:
// served version and the full (u, v, phi) edge dump.
func dumpState(t *testing.T, e *Engine, name string) (int64, [][3]int64) {
	t.Helper()
	info, err := e.Info(name)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := mustView(t, e, name).KBitrussEdges(0)
	if err != nil {
		t.Fatal(err)
	}
	return info.Version, edges
}

// mutateWaited applies one waited batch and returns the acked version.
func mutateWaited(t *testing.T, e *Engine, name string, req MutateRequest) int64 {
	t.Helper()
	req.Wait = true
	res, err := e.Mutate(context.Background(), name, req)
	if err != nil {
		t.Fatal(err)
	}
	return res.Version
}

// TestDurableRestartRoundTrip is the tentpole round trip: decompose,
// mutate through several snapshot intervals (so recovery exercises
// both the snapshot and the WAL suffix), shut down, recover on a fresh
// engine, and require the identical served state — then keep mutating.
func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const name = "web trust/v1" // exercises dataset-name escaping
	ctx := context.Background()

	e1 := durableEngine(t, dir, 3, nil)
	if err := e1.Register(name, gen.Uniform(30, 30, 200, 11)); err != nil {
		t.Fatal(err)
	}
	if err := e1.Decompose(ctx, name, Options{Algorithm: core.BiTBUPlusPlus, Workers: 2, Ranges: 4}); err != nil {
		t.Fatal(err)
	}
	var acked int64
	for i := 0; i < 8; i++ {
		req := MutateRequest{Insert: [][2]int{{31 + i, i}, {i, 29 - i}}}
		if i%3 == 1 {
			req.Delete = [][2]int{{31 + i - 1, i - 1}}
		}
		acked = mutateWaited(t, e1, name, req)
	}
	wantVer, wantEdges := dumpState(t, e1, name)
	if wantVer != acked {
		t.Fatalf("served version %d, last acked %d", wantVer, acked)
	}
	if err := e1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	e2 := durableEngine(t, dir, 3, nil)
	names, err := e2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{name}) {
		t.Fatalf("recovered %v, want [%q]", names, name)
	}
	if err := e2.Wait(ctx, name); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	gotVer, gotEdges := dumpState(t, e2, name)
	if gotVer != wantVer {
		t.Fatalf("recovered version %d, want %d", gotVer, wantVer)
	}
	if !reflect.DeepEqual(gotEdges, wantEdges) {
		t.Fatalf("recovered (u, v, phi) dump differs from pre-shutdown state")
	}
	info, err := e2.Info(name)
	if err != nil || info.Status != StatusReady {
		t.Fatalf("recovered status %v err %v, want ready", info.Status, err)
	}

	// The recovered dataset must accept and persist further mutations.
	if v := mutateWaited(t, e2, name, MutateRequest{Insert: [][2]int{{60, 5}}}); v != wantVer+1 {
		t.Fatalf("post-recovery mutation acked version %d, want %d", v, wantVer+1)
	}
	if err := e2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverVariants covers the satellite recovery edge cases at the
// engine level: a dataset with an empty WAL, one never decomposed
// (graph only), and one whose WAL segments were deleted.
func TestRecoverVariants(t *testing.T) {
	ctx := context.Background()
	setup := func(t *testing.T, decompose bool, mutations, every int) (string, int64, [][3]int64) {
		t.Helper()
		dir := t.TempDir()
		e := durableEngine(t, dir, every, nil)
		if err := e.Register("ds", gen.Uniform(20, 20, 120, 5)); err != nil {
			t.Fatal(err)
		}
		if decompose {
			if err := e.Decompose(ctx, "ds", Options{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < mutations; i++ {
			mutateWaited(t, e, "ds", MutateRequest{Insert: [][2]int{{21 + i, i}}})
		}
		var ver int64
		var edges [][3]int64
		if decompose {
			ver, edges = dumpState(t, e, "ds")
		}
		if err := e.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		return dir, ver, edges
	}
	recover1 := func(t *testing.T, dir string) *Engine {
		t.Helper()
		e := durableEngine(t, dir, 100, nil)
		names, err := e.Recover(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(names, []string{"ds"}) {
			t.Fatalf("recovered %v", names)
		}
		if err := e.Wait(ctx, "ds"); err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		return e
	}

	t.Run("empty-wal", func(t *testing.T) {
		dir, wantVer, wantEdges := setup(t, true, 0, 100)
		e := recover1(t, dir)
		defer e.Shutdown(ctx)
		gotVer, gotEdges := dumpState(t, e, "ds")
		if gotVer != wantVer || !reflect.DeepEqual(gotEdges, wantEdges) {
			t.Fatalf("recovered version %d, want %d", gotVer, wantVer)
		}
	})

	t.Run("graph-only", func(t *testing.T) {
		dir, _, _ := setup(t, false, 0, 100)
		e := recover1(t, dir)
		defer e.Shutdown(ctx)
		info, err := e.Info("ds")
		if err != nil || info.Status != StatusLoaded {
			t.Fatalf("status %v err %v, want loaded", info.Status, err)
		}
		// A decomposition after recovery must work and persist.
		if err := e.Decompose(ctx, "ds", Options{}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("snapshot-only", func(t *testing.T) {
		dir, wantVer, wantEdges := setup(t, true, 3, 100)
		sub := filepath.Join(dir, "ds")
		wals, err := filepath.Glob(filepath.Join(sub, "wal-*.log"))
		if err != nil || len(wals) == 0 {
			t.Fatalf("no WAL segments under %s: %v", sub, err)
		}
		for _, w := range wals {
			if err := os.Remove(w); err != nil {
				t.Fatal(err)
			}
		}
		e := recover1(t, dir)
		defer e.Shutdown(ctx)
		gotVer, gotEdges := dumpState(t, e, "ds")
		// Graceful shutdown checkpointed after the last batch, so the
		// snapshot alone already contains every acked mutation.
		if gotVer != wantVer || !reflect.DeepEqual(gotEdges, wantEdges) {
			t.Fatalf("recovered version %d, want %d", gotVer, wantVer)
		}
	})

	t.Run("wal-only-unrecoverable", func(t *testing.T) {
		dir, _, _ := setup(t, true, 3, 100)
		sub := filepath.Join(dir, "ds")
		snaps, err := filepath.Glob(filepath.Join(sub, "snap-*.bsnp"))
		if err != nil || len(snaps) == 0 {
			t.Fatalf("no snapshots under %s: %v", sub, err)
		}
		for _, s := range snaps {
			if err := os.Remove(s); err != nil {
				t.Fatal(err)
			}
		}
		e := durableEngine(t, dir, 100, nil)
		defer e.Shutdown(ctx)
		names, err := e.Recover(ctx)
		if err != nil || !reflect.DeepEqual(names, []string{"ds"}) {
			t.Fatalf("recover: names %v err %v", names, err)
		}
		if err := e.Wait(ctx, "ds"); err == nil {
			t.Fatal("recovery of a snapshot-less dataset succeeded")
		}
		// The unrecoverable dataset must be unregistered, not wedged.
		if _, err := e.Info("ds"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("after failed recovery: %v, want ErrNotFound", err)
		}
	})

	t.Run("corrupt-latest-snapshot-falls-back", func(t *testing.T) {
		// SnapshotEvery 1 checkpoints per batch, so both retained
		// generations carry the decomposition and the fallback one has a
		// WAL segment covering the gap to the acked tip.
		dir, wantVer, wantEdges := setup(t, true, 3, 1)
		sub := filepath.Join(dir, "ds")
		snaps, err := filepath.Glob(filepath.Join(sub, "snap-*.bsnp"))
		if err != nil || len(snaps) < 2 {
			t.Fatalf("want >= 2 snapshot generations, have %v (%v)", snaps, err)
		}
		latest := snaps[len(snaps)-1]
		raw, err := os.ReadFile(latest)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/3] ^= 0x20
		if err := os.WriteFile(latest, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		e := recover1(t, dir)
		defer e.Shutdown(ctx)
		gotVer, gotEdges := dumpState(t, e, "ds")
		// The fallback generation plus its WAL segment must rebuild the
		// exact acked state.
		if gotVer != wantVer || !reflect.DeepEqual(gotEdges, wantEdges) {
			t.Fatalf("recovered version %d, want %d", gotVer, wantVer)
		}
	})
}

// TestRecoveringGuards pins the serving behaviour of a dataset still
// recovering: reads and writes fail with ErrRecovering, Info reports
// the status, and List includes it.
func TestRecoveringGuards(t *testing.T) {
	e := durableEngine(t, t.TempDir(), 0, nil)
	ds, err := e.registerRecovering("slow")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.View("slow"); !errors.Is(err, ErrRecovering) {
		t.Fatalf("View: %v, want ErrRecovering", err)
	}
	if _, err := e.Mutate(context.Background(), "slow", MutateRequest{Insert: [][2]int{{1, 1}}}); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Mutate: %v, want ErrRecovering", err)
	}
	if _, err := e.StartDecompose(context.Background(), "slow", Options{}); !errors.Is(err, ErrRecovering) {
		t.Fatalf("StartDecompose: %v, want ErrRecovering", err)
	}
	info, err := e.Info("slow")
	if err != nil || info.Status != StatusRecovering {
		t.Fatalf("Info: %+v, %v; want recovering", info, err)
	}
	if s := info.Status.String(); s != "recovering" {
		t.Fatalf("status string %q", s)
	}
	// Release the placeholder the way recoverDataset would.
	ds.mu.Lock()
	ds.recovering = false
	ds.status = StatusLoaded
	ds.mu.Unlock()
	close(ds.done)
	if _, err := e.Info("slow"); err != nil {
		t.Fatal(err)
	}
}

// TestMutateWALFaultRejectsBatch injects an fsync failure into the WAL
// append of a waited mutation: the batch must be rejected (never acked
// without durability), the served snapshot must stay at the previous
// version, and a restart must recover exactly the acked prefix.
func TestMutateWALFaultRejectsBatch(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS())
	ctx := context.Background()
	e := durableEngine(t, dir, 100, ffs)
	if err := e.Register("ds", gen.Uniform(20, 20, 120, 5)); err != nil {
		t.Fatal(err)
	}
	if err := e.Decompose(ctx, "ds", Options{}); err != nil {
		t.Fatal(err)
	}
	acked := mutateWaited(t, e, "ds", MutateRequest{Insert: [][2]int{{21, 0}}})
	wantVer, wantEdges := dumpState(t, e, "ds")
	if wantVer != acked {
		t.Fatalf("version %d, want %d", wantVer, acked)
	}

	ffs.FailSync(1)
	_, err := e.Mutate(ctx, "ds", MutateRequest{Insert: [][2]int{{22, 1}}, Wait: true})
	if err == nil || !strings.Contains(err.Error(), "write-ahead log") {
		t.Fatalf("faulted mutation: %v, want write-ahead log failure", err)
	}
	if gotVer, gotEdges := dumpState(t, e, "ds"); gotVer != wantVer || !reflect.DeepEqual(gotEdges, wantEdges) {
		t.Fatalf("rejected batch changed served state: version %d, want %d", gotVer, wantVer)
	}
	// The log is poisoned until rotation; further writes must keep
	// failing rather than ack a batch the log cannot cover.
	ffs.Heal()
	if _, err := e.Mutate(ctx, "ds", MutateRequest{Insert: [][2]int{{23, 2}}, Wait: true}); err == nil {
		t.Fatal("mutation after WAL poisoning succeeded")
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery must land exactly on the acked prefix.
	e2 := durableEngine(t, dir, 100, nil)
	if _, err := e2.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e2.Wait(ctx, "ds"); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	gotVer, gotEdges := dumpState(t, e2, "ds")
	if gotVer != wantVer || !reflect.DeepEqual(gotEdges, wantEdges) {
		t.Fatalf("recovered version %d, want %d", gotVer, wantVer)
	}
	// And writes work again after the rotation recovery performed.
	if v := mutateWaited(t, e2, "ds", MutateRequest{Insert: [][2]int{{24, 3}}}); v != wantVer+1 {
		t.Fatalf("post-recovery version %d, want %d", v, wantVer+1)
	}
	if err := e2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDatasetNameCodec pins the percent-escaping round trip.
func TestDatasetNameCodec(t *testing.T) {
	for _, name := range []string{"plain", "web trust/v1", ".hidden", "ümlaut", "a%b", "-", "x."} {
		enc := encodeDatasetName(name)
		if strings.ContainsAny(enc, "/ ") || strings.HasPrefix(enc, ".") {
			t.Fatalf("%q encoded to unsafe %q", name, enc)
		}
		dec, ok := decodeDatasetName(enc)
		if !ok || dec != name {
			t.Fatalf("round trip %q -> %q -> %q (%v)", name, enc, dec, ok)
		}
	}
	for _, bad := range []string{"", "%", "%2", "%zz"} {
		if _, ok := decodeDatasetName(bad); ok {
			t.Fatalf("decoded invalid %q", bad)
		}
	}
}

// TestRemoveDeletesDurableState verifies Remove erases the dataset's
// directory so a later Recover does not resurrect it.
func TestRemoveDeletesDurableState(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	e := durableEngine(t, dir, 0, nil)
	if err := e.Register("ds", gen.Uniform(10, 10, 40, 3)); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "ds")
	if _, err := os.Stat(sub); err != nil {
		t.Fatalf("durable dir missing after register: %v", err)
	}
	if err := e.Remove("ds"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sub); !os.IsNotExist(err) {
		t.Fatalf("durable dir survived Remove: %v", err)
	}
	e2 := durableEngine(t, dir, 0, nil)
	names, err := e2.Recover(ctx)
	if err != nil || len(names) != 0 {
		t.Fatalf("recover after remove: %v, %v", names, err)
	}
	if err := e2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
