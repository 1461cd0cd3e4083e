package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
)

// The server settings: bitserved's defaults with its durability
// switched on (-data-dir), spelled out so every result records them.
const (
	serveAlgorithm = "bu++"
	serveWorkers   = 0
	cacheBytes     = 32 << 20
	prewarmLevels  = 16
	prewarmTop     = 10
	snapshotEvery  = engine.DefaultSnapshotEvery
)

// settings is the server configuration as recorded in each result.
type settings struct {
	Algorithm     string `json:"algorithm"`
	Workers       int    `json:"workers"`
	CacheBytes    int64  `json:"cache_bytes"`
	PrewarmLevels int    `json:"prewarm_levels"`
	PrewarmTop    int    `json:"prewarm_top"`
	WALFsync      string `json:"wal_fsync"`
	SnapshotEvery int    `json:"snapshot_every_batches"`
}

var serverSettings = settings{
	Algorithm: serveAlgorithm, Workers: serveWorkers, CacheBytes: cacheBytes,
	PrewarmLevels: prewarmLevels, PrewarmTop: prewarmTop,
	WALFsync: "every batch", SnapshotEvery: snapshotEvery,
}

// instance is one in-process bitserved: the engine, the v1 handler and
// a listener on a loopback port, assembled the way cmd/bitserved
// assembles them.
type instance struct {
	eng  *engine.Engine
	api  *server.Server
	srv  *http.Server
	url  string
	done chan error
}

// quietLog drops the server's response-encoding log lines; a failed
// response already shows up as a failed operation.
var quietLog = log.New(io.Discard, "", 0)

// startServer brings up a durable server over dataDir and starts
// recovering whatever the directory holds.
func startServer(ctx context.Context, dataDir string) (*instance, error) {
	eng := engine.New()
	eng.SetCacheMaxBytes(cacheBytes)
	api := server.New(eng, server.WithPrewarm(prewarmLevels, prewarmTop), server.WithErrorLog(quietLog))
	if err := eng.EnableDurability(engine.DurabilityOptions{Dir: dataDir, SnapshotEvery: snapshotEvery}); err != nil {
		return nil, err
	}
	if _, err := eng.Recover(ctx); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{
		eng:  eng,
		api:  api,
		srv:  &http.Server{Handler: api.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { in.done <- in.srv.Serve(ln) }()
	return in, nil
}

// crash drops the listener and every connection and abandons the
// engine without Shutdown: nothing is flushed or checkpointed beyond
// what each acknowledged write already made durable.
func (in *instance) crash() {
	_ = in.srv.Close() // connections are cut either way
	<-in.done
}

// stop shuts the server and the engine down gracefully.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if eerr := in.eng.Shutdown(ctx); err == nil {
		err = eerr
	}
	return err
}

// newClient returns a typed client holding at most one connection to
// the server and never retrying: a 503 or a transport error is a
// failed operation, not something to paper over.
func (in *instance) newClient() *client.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return client.New(in.url, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 120 * time.Second}), client.WithRetry(0, 0))
}

// loadAndDecompose registers the edge file as dataset name and runs the
// server's decomposition to completion, returning the ready row.
func loadAndDecompose(ctx context.Context, c *client.Client, name, path string) (client.Dataset, error) {
	if _, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Name: name, Path: path}); err != nil {
		return client.Dataset{}, fmt.Errorf("creating %s: %w", name, err)
	}
	ds, err := c.Dataset(name).Decompose(ctx, client.DecomposeRequest{Algorithm: serveAlgorithm, Workers: serveWorkers, Wait: true})
	if err != nil {
		return client.Dataset{}, fmt.Errorf("decomposing %s: %w", name, err)
	}
	if ds.Status != "ready" {
		return ds, fmt.Errorf("decomposing %s: status %q after a waited decompose", name, ds.Status)
	}
	if ds.Algorithm != core.BiTBUPlusPlus.String() {
		return ds, fmt.Errorf("decomposing %s: served by %q, want %s", name, ds.Algorithm, core.BiTBUPlusPlus)
	}
	return ds, nil
}
