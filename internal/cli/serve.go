package cli

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
)

// datasetFlags collects repeated -dataset name=path pairs.
type datasetFlags []string

func (d *datasetFlags) String() string { return strings.Join(*d, ",") }
func (d *datasetFlags) Set(v string) error {
	*d = append(*d, v)
	return nil
}

// Serve implements the `bitserved` tool: a long-running HTTP JSON
// server over the resident query engine. Datasets named on the command
// line are loaded at startup and (optionally) decomposed in the
// background before the listener starts answering queries.
func Serve(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bitserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Localhost by default: /datasets accepts server-side file paths,
	// so exposing the API beyond the host is an explicit operator
	// choice (-addr :8080).
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :8080 to serve all interfaces)")
	var datasets datasetFlags
	fs.Var(&datasets, "dataset", "dataset to preload as name=path (repeatable)")
	oneBased := fs.Bool("one-based", false, "treat text vertex ids as 1-based (KONECT)")
	decompose := fs.Bool("decompose", true, "start decomposing preloaded datasets at startup")
	algo := fs.String("algo", "bu++", "startup decomposition algorithm: bs, bu, bu+, bu++, bu++p, pc")
	tau := fs.Float64("tau", 0, "BiT-PC threshold decrement fraction (0 = default)")
	workers := fs.Int("workers", 0, "parallel workers for the startup decompositions (butterfly counting, BE-Index build, bu++p peeler), the community index and later incremental maintenance; counting, BE-Index build and maintenance run at most GOMAXPROCS goroutines (0 = serial counting and BE-Index build, GOMAXPROCS elsewhere)")
	ranges := fs.Int("ranges", 0, "coarse support ranges of the bu++p peeler (0 = derived from -workers)")
	mutlog := fs.Int("mutlog", 0, "applied mutation-batch records retained per dataset (0 = default 128)")
	cacheOn := fs.Bool("cache", true, "serve hot queries from the per-snapshot response cache")
	cacheBytes := fs.Int64("cache-bytes", 32<<20, "response-cache bound per snapshot, in payload bytes (0 disables)")
	prewarmLevels := fs.Int("prewarm-levels", 16, "bitruss levels whose top communities are pre-warmed on snapshot publish (0 disables)")
	prewarmTop := fs.Int("prewarm-top", 10, "top parameter pre-warmed per level")
	debugAddr := fs.String("debug-addr", "", "optional debug listener (pprof + expvar + serving stats), e.g. 127.0.0.1:6060")
	dataDir := fs.String("data-dir", "", "durability directory: write-ahead-log every mutation, snapshot periodically, recover persisted datasets at startup")
	snapshotEvery := fs.Int("snapshot-every", 0, "applied mutation batches between durable snapshots (0 = default, needs -data-dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, ok := core.ParseAlgorithm(*algo)
	if !ok {
		return fmt.Errorf("%w: unknown algorithm %q", ErrUsage, *algo)
	}

	// serverCtx scopes every background decomposition: cancelling it on
	// shutdown propagates through the engine's context plumbing into
	// the peeling loops.
	serverCtx, cancelServer := context.WithCancel(context.Background())
	defer cancelServer()

	eng := engine.New()
	eng.SetCacheMaxBytes(*cacheBytes)
	if *mutlog > 0 {
		eng.SetMutationLogCap(*mutlog)
	}
	// Build the server before kicking off the startup decompositions:
	// server.New registers the engine's publish hook, and a small
	// dataset could finish decomposing (and publish its snapshot) before
	// a later-constructed server could register — silently skipping the
	// pre-warm for exactly the datasets an operator preloads.
	var srvOpts []server.Option
	if !*cacheOn || *cacheBytes <= 0 {
		srvOpts = append(srvOpts, server.WithoutQueryCache())
	}
	srvOpts = append(srvOpts, server.WithPrewarm(*prewarmLevels, *prewarmTop))
	api := server.New(eng, srvOpts...)

	// Cold-start recovery runs before the preload loop so a -dataset
	// flag naming an already-persisted dataset defers to the recovered
	// (newer) state instead of re-loading the original file. Recovery
	// itself is concurrent: the listener comes up immediately and the
	// recovering datasets answer 503 + Retry-After until they are back.
	recovered := map[string]bool{}
	if *dataDir != "" {
		if err := eng.EnableDurability(engine.DurabilityOptions{Dir: *dataDir, SnapshotEvery: *snapshotEvery}); err != nil {
			return err
		}
		names, err := eng.Recover(serverCtx)
		if err != nil {
			return err
		}
		for _, name := range names {
			recovered[name] = true
			fmt.Fprintf(stdout, "recovering %s from %s in the background\n", name, *dataDir)
		}
	} else if *snapshotEvery != 0 {
		return fmt.Errorf("%w: -snapshot-every needs -data-dir", ErrUsage)
	}

	for _, spec := range datasets {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("%w: -dataset wants name=path, got %q", ErrUsage, spec)
		}
		if recovered[name] {
			fmt.Fprintf(stdout, "skipping -dataset %s: recovering it from %s instead\n", name, *dataDir)
			continue
		}
		if err := eng.Load(name, path, *oneBased); err != nil {
			return err
		}
		info, _ := eng.Info(name)
		fmt.Fprintf(stdout, "loaded %s: |U|=%d |L|=%d |E|=%d\n", name, info.Upper, info.Lower, info.Edges)
		if *decompose {
			jobID, err := eng.StartDecompose(serverCtx, name, engine.Options{
				Algorithm: a, Tau: *tau, Workers: *workers, Ranges: *ranges,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "decomposing %s with %v in the background (job %d)\n", name, a, jobID)
		}
	}

	srv := newHTTPServer(*addr, api.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(stdout, "bitserved listening on %s\n", *addr)

	// The debug listener is separate from the API listener so pprof and
	// counters are never exposed on the serving address by accident.
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = newHTTPServer(*debugAddr, debugMux(api, eng, time.Now()))
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(stdout, "debug listener: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "debug endpoints on http://%s/debug/\n", *debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		// Graceful shutdown: stop accepting connections and drain
		// in-flight queries, cancel background decompositions, then
		// wait for the engine's appliers and peelers to wind down. A
		// second signal aborts immediately.
		fmt.Fprintf(stdout, "received %v, shutting down (signal again to force)\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		go func() {
			if s2, ok := <-sig; ok {
				fmt.Fprintf(stdout, "received %v, forcing exit\n", s2)
				cancel()
			}
		}()
		cancelServer()
		err := srv.Shutdown(ctx)
		if debugSrv != nil {
			if derr := debugSrv.Shutdown(ctx); err == nil {
				err = derr
			}
		}
		if serr := eng.Shutdown(ctx); err == nil {
			err = serr
		}
		fmt.Fprintln(stdout, "bitserved stopped")
		return err
	}
}

// Slow-client bounds shared by the API and debug listeners: a client
// must finish sending its request headers within readHeaderTimeout,
// and a keep-alive connection idle for idleTimeout is closed, so
// stalled or abandoned connections cannot pile up. Bodies are not
// time-bounded: a large inline edge list may upload slowly, and
// maxBodyBytes in the server already caps its size.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds one bitserved listener with the slow-client
// bounds applied.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// debugMux assembles the -debug-addr handler: the standard pprof
// surface, the expvar page, and a serving-stats JSON endpoint with
// request/cache counters, QPS since start and per-dataset snapshot
// versions.
func debugMux(api *server.Server, eng *engine.Engine, start time.Time) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) {
		st := api.Stats()
		uptime := time.Since(start)
		type datasetStats struct {
			Version      int64 `json:"version"`
			Pending      int   `json:"pending"`
			CacheEntries int   `json:"cache_entries"`
			CacheBytes   int64 `json:"cache_bytes"`
		}
		out := struct {
			UptimeS     float64                 `json:"uptime_s"`
			Requests    uint64                  `json:"requests"`
			QPS         float64                 `json:"qps"`
			CacheHits   uint64                  `json:"cache_hits"`
			CacheMisses uint64                  `json:"cache_misses"`
			HitRate     float64                 `json:"cache_hit_rate"`
			Datasets    map[string]datasetStats `json:"datasets"`
		}{
			UptimeS:     uptime.Seconds(),
			Requests:    st.Requests,
			QPS:         float64(st.Requests) / max(uptime.Seconds(), 1e-9),
			CacheHits:   st.CacheHits,
			CacheMisses: st.CacheMisses,
			Datasets:    map[string]datasetStats{},
		}
		if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
			out.HitRate = float64(st.CacheHits) / float64(lookups)
		}
		for _, info := range eng.List() {
			ds := datasetStats{Version: info.Version, Pending: info.Pending}
			if vw, err := eng.View(info.Name); err == nil {
				ds.CacheEntries, ds.CacheBytes = vw.CacheStats()
			}
			out.Datasets[info.Name] = ds
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	return mux
}
