// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against an in-process bitserved — built from the same
// engine and v1 handler, with bitserved's default settings and its
// durability on — through the typed client, checks every answer
// against references it computes itself, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line
// of its output. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

// runBudget bounds one run, which must finish within 180 s.
const runBudget = 170 * time.Second

// minSeconds is the shortest serving phase whose reads support a p99
// with minBeyond samples beyond it.
const minSeconds = (minBeyond*100 + readsPerSec - 1) / readsPerSec

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ready-skew or ready-uniform")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 20, "length of the serving phase in seconds (sets the read count and the write pace)")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d)\n", *name, *trace)
		return 2
	}
	if *seconds < minSeconds {
		fmt.Fprintf(stderr, "perfbench: --seconds %d is too short: read_p99_ms needs %d reads (ten beyond the p99), %d seconds at %d reads/s\n",
			*seconds, minBeyond*100, minSeconds, readsPerSec)
		return 2
	}
	out := filepath.Join(*root, ".bench_build")
	work := filepath.Join(out, "work", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	r := &run{
		w: w, seed: *seed, seconds: *seconds, tr: newTracer(*trace == 1), work: work,
		e2e: map[string]metric{}, layers: map[string]metric{}, samples: map[string]int{}, graphs: map[string]graphInfo{},
	}
	// An interrupted run still removes its scratch files on the way out.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, runBudget)
	defer cancel()
	if err := r.execute(ctx); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		for _, p := range r.problems {
			fmt.Fprintln(stderr, "  ", p)
		}
		return 1
	}

	metrics := r.e2e
	if r.tr.on {
		metrics = r.layers
	}
	rec := record{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: r.tr.on,
		Env: env{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Commit: commit(), OS: runtime.GOOS + "/" + runtime.GOARCH,
		},
		Server: serverSettings, Graphs: r.graphs,
		Reads: readsPerSec * *seconds, ReadsPerSec: readsPerSec, Writes: writeBatches, Restarts: restarts, SetupReps: setupReps,
		Samples: r.samples, Metrics: metrics, Problems: r.problems,
	}
	if r.tr.on {
		rec.Spans = selfTimes(r.tr.spans)
		rec.EndToEnd = r.e2e
	} else {
		rec.Layers = r.layers // the serving layers, derived from counters the run already read
	}
	results := filepath.Join(out, "results")
	base := filepath.Join(results, fmt.Sprintf("%s-%d-trace%d", w.name, *seed, *trace))
	if err := os.MkdirAll(results, 0o755); err == nil {
		if data, err := json.MarshalIndent(rec, "", " "); err == nil {
			_ = os.WriteFile(base+".json", data, 0o644) // a copy of the record line below
		}
		if r.tr.on {
			if err := r.tr.write(base + ".spans.json"); err != nil {
				fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			}
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// env is the machine and build a result was measured on.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// record is everything a run measured and the conditions it ran under;
// it is printed on the line before the result and kept under
// .bench_build/results.
type record struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Seconds     int                  `json:"seconds"`
	Trace       bool                 `json:"trace"`
	Env         env                  `json:"env"`
	Server      settings             `json:"server"`
	Graphs      map[string]graphInfo `json:"graphs"`
	Reads       int                  `json:"reads"`
	ReadsPerSec int                  `json:"reads_per_sec"`
	Writes      int                  `json:"writes"`
	Restarts    int                  `json:"restarts"`
	SetupReps   int                  `json:"setup_reps"`
	Samples     map[string]int       `json:"samples"`
	Metrics     map[string]metric    `json:"metrics"`
	EndToEnd    map[string]metric    `json:"end_to_end,omitempty"` // the traced run's, for the overhead comparison
	Layers      map[string]metric    `json:"layers,omitempty"`
	Spans       []layerTime          `json:"spans,omitempty"`
	Problems    []string             `json:"problems,omitempty"`
}
