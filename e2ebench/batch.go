package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"syscall"
	"time"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/types"
)

// batchSpec is one CLI batch workload: jsoninfer with no flags but
// -format codec, on one generated NDJSON file.
type batchSpec struct {
	name    string
	dataset string
	records int
}

var (
	batchTwitter  = batchSpec{name: "batch-twitter", dataset: "twitter", records: 40000}
	batchWikidata = batchSpec{name: "batch-wikidata", dataset: "wikidata", records: 20000}
)

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 3

// prefixRecords is how much of the batch file the traced run also
// replays through the serving layers, as one tenant's ingests.
const prefixRecords = 2000

func runBatch(ctx context.Context, e *env, spec batchSpec) (*result, error) {
	bin := e.path("jsoninfer")
	input := e.path(spec.dataset + ".ndjson")
	rounds := setupRounds
	if e.trace {
		rounds = 1
	}
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	var setups []float64
	var size int64
	before := probe.run()
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := goBuild(ctx, e.root, bin, "./cmd/jsoninfer"); err != nil {
			return nil, err
		}
		n, err := writeDataset(input, spec.dataset, spec.records, e.seed)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		after := probe.run()
		setups = append(setups, d.Seconds()*scaleBetween(before, after).wall)
		before = after
		size = n
	}
	fmt.Fprintf(e.log, "%s: %d %s records, %d bytes, seed %d\n", spec.name, spec.records, spec.dataset, size, e.seed)
	if e.trace {
		return traceBatch(ctx, e, spec, bin, input)
	}

	// Each pass is bracketed by probe runs and scaled by their mean.
	var passes []cliPass
	var scales []hostScale
	deadline := time.Now().Add(e.seconds)
	before = probe.run()
	for len(passes) == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		passes = append(passes, runCLI(ctx, bin, input, time.Now()))
		after := probe.run()
		scales = append(scales, scaleBetween(before, after))
		before = after
	}

	res := &result{Correct: true}
	ref, err := referenceCodec(input)
	if err != nil {
		return nil, err
	}
	checkPasses(e, res, passes, ref)

	var walls, cpus, scaledWalls, scaledCPUs, rss []float64
	for i, p := range passes {
		walls = append(walls, p.wallMS())
		cpus = append(cpus, ms(p.cpu))
		scaledWalls = append(scaledWalls, p.wallMS()*scales[i].wall)
		scaledCPUs = append(scaledCPUs, ms(p.cpu)*scales[i].cpu)
		rss = append(rss, mb(p.rss))
	}
	fmt.Fprintf(e.log, "  %d passes, wall ms:", len(passes))
	for _, w := range walls {
		fmt.Fprintf(e.log, " %.0f", w)
	}
	fmt.Fprintf(e.log, "\n  host scale (wall/cpu):")
	for _, s := range scales {
		fmt.Fprintf(e.log, " %.3f/%.3f", s.wall, s.cpu)
	}
	fmt.Fprintf(e.log, "\n  as measured: %.2f MB/s, %.2f CPU ms/MB (median pass)\n",
		mb(size)/(median(walls)/1000), median(cpus)/mb(size))
	res.set("setup_s", median(setups), "s")
	res.set("infer_mb_per_s", finite(mb(size)/(median(scaledWalls)/1000)), "MB/s")
	res.set("cpu_ms_per_mb", finite(median(scaledCPUs)/mb(size)), "ms/MB")
	res.set("rss_mb", median(rss), "MB")
	return res, nil
}

// cliPass is one jsoninfer run over the whole file.
type cliPass struct {
	wall time.Duration
	cpu  time.Duration // user + system
	rss  int64         // peak resident set, bytes
	lag  time.Duration // from the pass's due time to the process running
	out  []byte
	err  error
}

func (p cliPass) wallMS() float64 {
	if p.err != nil {
		return math.Inf(1)
	}
	return ms(p.wall)
}

// runCLI runs jsoninfer -format codec on input, as a user would.
func runCLI(ctx context.Context, bin, input string, due time.Time) cliPass {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, "-format", "codec", input)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	var p cliPass
	start := time.Now()
	if err := cmd.Start(); err != nil {
		p.err = err
		return p
	}
	p.lag = time.Since(due)
	err := cmd.Wait()
	p.wall = time.Since(start)
	if err != nil {
		p.err = fmt.Errorf("jsoninfer: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.rss = ru.Maxrss * 1024
	}
	p.out = stdout.Bytes()
	return p
}

// checkPasses counts each pass that failed or printed a schema other
// than the reference.
func checkPasses(e *env, res *result, passes []cliPass, ref []byte) {
	for i, p := range passes {
		res.Attempted++
		err := p.err
		if err == nil {
			err = sameSchema(p.out, ref)
		}
		if err != nil {
			res.fail(1)
			fmt.Fprintf(e.log, "  pass %d: %v\n", i+1, err)
		}
	}
}

// referenceCodec builds the reference schema of a file with the
// untraced layer replay.
func referenceCodec(input string) ([]byte, error) {
	t, _, err := replayFile(input, nil)
	if err != nil {
		return nil, err
	}
	return types.MarshalJSON(t)
}

// replayFile runs the layer replay over a file under the default
// fusion policy.
func replayFile(input string, tr *Tracer) (types.Type, *layerReplay, error) {
	f, err := os.Open(input)
	if err != nil {
		return nil, nil, err
	}
	//lint:ignore droppederr the file is only read
	defer f.Close()
	r := newLayerReplay(fusion.Options{}, tr)
	if err := r.feed(f); err != nil {
		return nil, nil, fmt.Errorf("replay %s: %w", input, err)
	}
	return r.result(), r, nil
}

// traceBatch is the traced run of a batch workload.
func traceBatch(ctx context.Context, e *env, spec batchSpec, bin, input string) (*result, error) {
	res := &result{Correct: true}
	tr := NewTracer()

	// End-to-end reference points: a few CLI passes and the same
	// inference in-process, with the shipped defaults.
	const reps = 3
	var passes []cliPass
	due := time.Now()
	for i := 0; i < reps; i++ {
		passes = append(passes, runCLI(ctx, bin, input, due))
		due = time.Now()
	}
	var inproc, tasks, waits, utils []float64
	for i := 0; i < reps; i++ {
		c := jsi.NewCollector()
		sp := tr.Begin("infer.batch")
		_, _, err := jsi.Infer(ctx, jsi.FromFiles(input), jsi.Options{Collector: c})
		tr.End(sp)
		if err != nil {
			return nil, err
		}
		inproc = append(inproc, ms(tr.Spans()[sp].Dur()))
		m := c.Metrics()
		tasks = append(tasks, float64(m.Histograms["mapreduce_task_ns"].Sum)/1e6)
		waits = append(waits, float64(m.Histograms["mapreduce_queue_wait_ns"].Sum)/1e6)
		utils = append(utils, float64(m.Gauges["mapreduce_utilization_permille"])/1000)
	}
	// The library's single-worker run and the untraced replay,
	// alternated so that both medians see the same host conditions;
	// then the traced replay.
	var oneWorker, untraced []float64
	var plain types.Type
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, _, err := jsi.Infer(ctx, jsi.FromFiles(input), jsi.Options{Workers: 1}); err != nil {
			return nil, err
		}
		oneWorker = append(oneWorker, ms(time.Since(t0)))
		t0 = time.Now()
		t, _, err := replayFile(input, nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, ms(time.Since(t0)))
		plain = t
	}
	t0 := time.Now()
	traced, rp, err := replayFile(input, tr)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t0)
	ref, err := types.MarshalJSON(plain)
	if err != nil {
		return nil, err
	}
	res.Attempted++
	if !types.Equal(plain, traced) {
		res.fail(1)
		fmt.Fprintln(e.log, "  traced replay differs from the untraced replay")
	}
	checkPasses(e, res, passes, ref)

	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	lerr := lexPass(f, tr)
	if cerr := f.Close(); lerr == nil {
		lerr = cerr
	}
	if lerr != nil {
		return nil, lerr
	}

	// One tenant's worth of the file through the serving layers.
	reqs, err := prefixRequests(input, e.seed)
	if err != nil {
		return nil, err
	}
	tenants := []tenantSpec{{name: "t000", dataset: spec.dataset}}
	sv, err := replayServing(ctx, e.path("serving"), reqs, tenants, 0, tr, "")
	if err != nil {
		return nil, err
	}
	res.Attempted += sv.attempted
	res.fail(sv.failed)

	var walls, lags []float64
	for _, p := range passes {
		walls = append(walls, p.wallMS())
		lags = append(lags, ms(p.lag))
	}
	spans := tr.Spans()
	var counts replayCounts
	counts.add(rp)
	setLayerMetrics(res, spans, counts, median(oneWorker), median(untraced), ms(tracedWall))
	res.set("fusion.fused_nodes", float64(traced.Size()), "count")
	res.set("infer.batch_ms", median(inproc), "ms")
	res.set("mapreduce.task_ms", median(tasks), "ms")
	res.set("mapreduce.queue_wait_ms", median(waits), "ms")
	res.set("mapreduce.utilization", median(utils), "ratio")
	res.set("e2e.op_p50_ms", finite(median(walls)), "ms")
	res.set("transport.overhead_ms", finite(median(walls)-median(inproc)), "ms")
	res.set("loadgen.lag_ms", percentile(lags, 99), "ms")
	sv.set(res, spans)
	fmt.Fprintf(e.log, "  cli p50 %.1f ms, in-process p50 %.1f ms, 1-worker p50 %.1f ms, replay p50 %.1f ms (traced %.1f ms)\n",
		median(walls), median(inproc), median(oneWorker), median(untraced), ms(tracedWall))
	return res, writeTrace(e, spec.name, tr)
}

// prefixRequests cuts the first prefixRecords records of the file into
// one tenant's request sequence with the schemad route mix: ingests of
// ingestRecords, validates of the next validateRecords records, schema
// GETs in between.
func prefixRequests(input string, seed int64) ([]request, error) {
	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	//lint:ignore droppederr the file is only read
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for len(lines) < prefixRecords && sc.Scan() {
		lines = append(lines, append(append([]byte(nil), sc.Bytes()...), '\n'))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var out []request
	for cur := 0; cur < len(lines); {
		r := request{route: pickRoute(rng.Float64(), schemadMix.share)}
		switch r.route {
		case routeIngest:
			r.body, cur = joinLines(lines, cur, ingestRecords)
		case routeValidate:
			r.body, _ = joinLines(lines, cur, validateRecords)
		}
		out = append(out, r)
	}
	return out, nil
}

// joinLines concatenates up to n lines starting at from and returns the
// body and the next cursor.
func joinLines(lines [][]byte, from, n int) ([]byte, int) {
	to := from + n
	if to > len(lines) {
		to = len(lines)
	}
	return bytes.Join(lines[from:to], nil), to
}

// writeDataset generates n records of the named dataset into path.
func writeDataset(path, name string, n int, seed int64) (size int64, err error) {
	g, err := dataset.New(name)
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	size, err = dataset.WriteNDJSON(w, g, n, seed)
	if err != nil {
		return 0, err
	}
	return size, w.Flush()
}

// goBuild builds one command of the repository into out.
func goBuild(ctx context.Context, root, out, pkg string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v: %s", pkg, err, bytes.TrimSpace(msg))
	}
	return nil
}
