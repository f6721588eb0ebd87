// Command e2ebench is the repository's end-to-end benchmark. It
// measures the shipped programs from outside, the way their users
// meet them — the jsoninfer CLI on a large NDJSON file and schemad
// serving open-loop tenant traffic — and, in a separate traced run,
// replays the same inputs through the public functions of each layer
// package to show where the time goes.
//
// Usage, from the repository root (run.sh builds this command first):
//
//	bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1
// the per-layer ones; README.md defines each metric on each workload.
// The lines before it print the same figures, and more, for people.
// A wrong schema or a failed operation makes the run exit with 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// env is what every workload gets: the flags and the places to work.
type env struct {
	root    string // repository root, where go build runs
	work    string // scratch directory of this run, removed at exit
	seed    int64
	seconds time.Duration
	trace   bool
	log     io.Writer // human-readable lines
}

// result is the machine-readable outcome of one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records n failed operations.
func (r *result) fail(n int64) {
	r.Failed += n
	if n > 0 {
		r.Correct = false
	}
}

type workload func(ctx context.Context, e *env) (*result, error)

var workloads = map[string]workload{
	"batch-twitter":  func(ctx context.Context, e *env) (*result, error) { return runBatch(ctx, e, batchTwitter) },
	"batch-wikidata": func(ctx context.Context, e *env) (*result, error) { return runBatch(ctx, e, batchWikidata) },
	"schemad-mixed":  runSchemad,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root")
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer replay instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (one of %v), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	work := filepath.Join(abs, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	defer func() {
		if err := os.RemoveAll(work); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
		}
	}()
	e := &env{root: abs, work: work, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, log: stdout}
	res, err := wl(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	printMetrics(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics lists the reported metrics by name and unit.
func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

// finite maps a non-finite figure (no samples, or every sample a
// failure) to -1 so the result stays valid JSON; the run is marked
// failed in that case anyway.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return -1
	}
	return x
}

// mb converts a byte count to megabytes (10^6 bytes).
func mb(n int64) float64 { return float64(n) / 1e6 }

// path names a file in the run's scratch directory.
func (e *env) path(name string) string { return filepath.Join(e.work, name) }

// writeTrace writes the traced run's spans to
// .bench_build/traces/WORKLOAD-seedN.jsonl, one JSON span per line.
func writeTrace(e *env, workload string, tr *Tracer) error {
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed))
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(e.log, "  trace: %d spans in %s\n", len(tr.Spans()), path)
	return nil
}
