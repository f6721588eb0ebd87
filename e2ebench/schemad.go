package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/types"
)

// The schemad-mixed traffic: a tenant population larger than the
// resident cap, Zipf-skewed, each tenant fed by one generator.
const (
	schemadTenants    = 64
	schemadMaxTenants = 16
	ingestRecords     = 50
	validateRecords   = 20
)

// schemadMix is the nominal open-loop rate and route mix: 60% ingest,
// 25% validate, 15% schema GET. At 100 requests/s on a 2-vCPU host the
// all-route p50 varied 1.9x across runs while CPU per MB varied 1.2x,
// queueing amplifying the host's speed drift; at 50 requests/s the two
// connections are busy about a tenth of the time.
var schemadMix = mix{rate: 50, share: [2]float64{0.60, 0.85}, tenants: schemadTenants, zipfS: 1.1}

// tenantGenerators feed tenant i from tenantGenerators[i%4]; the two
// discriminated generators ingest with tagged=true.
var tenantGenerators = []string{"eventlog", "webhook", "twitter", "github"}

// taggedGenerator reports whether tenants fed by the named generator
// ingest with tagged=true.
func taggedGenerator(name string) bool { return name == "eventlog" || name == "webhook" }

func schemadTenantSpecs() []tenantSpec {
	out := make([]tenantSpec, schemadTenants)
	for i := range out {
		g := tenantGenerators[i%len(tenantGenerators)]
		out[i] = tenantSpec{name: fmt.Sprintf("t%03d", i), dataset: g, tagged: taggedGenerator(g)}
	}
	return out
}

// schemadRequests draws the schedule of one run and generates every
// request body from the seed.
func schemadRequests(seed int64, d time.Duration, tenants []tenantSpec) ([]request, error) {
	sched := schedule(seed, schemadMix, d)
	var ingests, validates = make([]int, len(tenants)), make([]int, len(tenants))
	for _, r := range sched {
		switch r.route {
		case routeIngest:
			ingests[r.tenant]++
		case routeValidate:
			validates[r.tenant]++
		}
	}
	// Each tenant's records come from one generator stream: ingest
	// batches first, then the records to validate.
	lines := make([][][]byte, len(tenants))
	for i, t := range tenants {
		n := ingests[i]*ingestRecords + validates[i]*validateRecords
		if n == 0 {
			continue
		}
		g, err := dataset.New(t.dataset)
		if err != nil {
			return nil, err
		}
		data := dataset.NDJSON(g, n, seed*1_000_003+int64(i))
		// Every record ends in a newline, so the last piece is empty.
		l := bytes.SplitAfter(data, []byte("\n"))
		lines[i] = l[:len(l)-1]
	}
	nextIngest, nextValidate := make([]int, len(tenants)), make([]int, len(tenants))
	for k := range sched {
		r := &sched[k]
		switch r.route {
		case routeIngest:
			r.body, nextIngest[r.tenant] = joinLines(lines[r.tenant], nextIngest[r.tenant], ingestRecords)
		case routeValidate:
			from := ingests[r.tenant]*ingestRecords + nextValidate[r.tenant]
			r.body, _ = joinLines(lines[r.tenant], from, validateRecords)
			nextValidate[r.tenant] += validateRecords
		}
	}
	return sched, nil
}

func runSchemad(ctx context.Context, e *env) (*result, error) {
	tenants := schemadTenantSpecs()
	bin := e.path("schemad")
	conns := runtime.NumCPU()
	rounds := setupRounds
	if e.trace {
		rounds = 1
	}
	var (
		setups []float64
		sched  []request
		burst  [][][]byte
		proc   *schemadProc
	)
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	before := probe.run()
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := goBuild(ctx, e.root, bin, "./cmd/schemad"); err != nil {
			return nil, err
		}
		var err error
		if sched, err = schemadRequests(e.seed, openLoopTime(e.seconds), tenants); err != nil {
			return nil, err
		}
		if burst, err = burstBodies(e.seed); err != nil {
			return nil, err
		}
		if proc, err = startSchemad(bin, e.path(fmt.Sprintf("data%d", i)), conns, tenants); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		if i < rounds-1 {
			if _, err := proc.stop(); err != nil {
				return nil, err
			}
		}
		after := probe.run()
		setups = append(setups, d.Seconds()*scaleBetween(before, after).wall)
		before = after
	}
	fmt.Fprintf(e.log, "schemad-mixed: %d requests over %s at %.0f/s, %d tenants (%d resident), %d connections, seed %d\n",
		len(sched), openLoopTime(e.seconds), schemadMix.rate, schemadTenants, schemadMaxTenants, conns, e.seed)

	stopRSS := make(chan struct{})
	rssc := make(chan []float64, 1)
	go func() { rssc <- sampleRSS(proc.cmd.Process.Pid, 100*time.Millisecond, stopRSS) }()
	deadline := time.Now().Add(e.seconds)
	outs := openLoop(ctx, sched, conns, proc.do)
	counters, merr := proc.counters(ctx)
	res := &result{Correct: true}
	checkTenants(ctx, e, res, proc, sched, outs, tenants)
	var bursts []burstPass
	var berr error
	if !e.trace {
		bursts, berr = runBursts(ctx, e, res, proc, burst, conns, probe, deadline)
	}
	close(stopRSS)
	rss := <-rssc
	ru, serr := proc.stop()
	if err := errors.Join(merr, berr, serr); err != nil {
		return nil, err
	}

	var lags []float64
	var byRoute [numRoutes][]float64
	lat := make([]float64, len(outs))
	var throughput []float64
	for i, o := range outs {
		res.Attempted++
		if o.err != nil {
			res.fail(1)
			if res.Failed <= 5 {
				fmt.Fprintf(e.log, "  request %d (%s): %v\n", i, routeNames[sched[i].route], o.err)
			}
		}
		l := o.latencyMS()
		lat[i] = l
		lags = append(lags, ms(o.lag))
		byRoute[sched[i].route] = append(byRoute[sched[i].route], l)
		if sched[i].route == routeIngest {
			throughput = append(throughput, mb(int64(len(sched[i].body)))/(l/1000))
		}
	}
	opP50 := classP50(sched, lat)
	for r, ls := range byRoute {
		p := tailPercentile(len(ls))
		fmt.Fprintf(e.log, "  %-10s n=%-5d p50 %8.3f ms   p%v %8.3f ms (%d beyond)\n",
			routeNames[r], len(ls), median(ls), p, percentile(ls, p), beyond(len(ls), p))
	}
	tenantReqs := float64(len(sched))
	fmt.Fprintf(e.log, "  op p50 %.3f ms, fail_ratio %.4f, generator lag p99 %.3f ms, tenant hit ratio %.4f, evictions %d, peak RSS %.1f MB\n",
		opP50, float64(res.Failed)/float64(res.Attempted), percentile(lags, 99),
		1-float64(counters["schemad_tenant_loads"])/tenantReqs, counters["schemad_evictions"], mb(ru.rss))

	if e.trace {
		return traceSchemad(ctx, e, res, sched, tenants, opP50, lags)
	}
	fmt.Fprintf(e.log, "  open loop: ingest body MB / latency, median %.3f MB/s; schemad CPU over its life %.1f s\n",
		median(throughput), ru.cpu.Seconds())
	var mbps, cpuPerMB []float64
	for k, b := range bursts {
		mbps = append(mbps, mb(b.bytes)/(b.wall.Seconds()*b.scale.wall))
		cpuPerMB = append(cpuPerMB, ms(b.cpu)*b.scale.cpu/mb(b.bytes))
		fmt.Fprintf(e.log, "  burst %d: %d ingests, %.1f MB in %.0f ms, %.0f CPU ms; as measured %.3f MB/s, %.2f CPU ms/MB; host scale %.3f/%.3f\n",
			k, b.requests, mb(b.bytes), ms(b.wall), ms(b.cpu), mb(b.bytes)/b.wall.Seconds(), ms(b.cpu)/mb(b.bytes), b.scale.wall, b.scale.cpu)
	}
	res.set("setup_s", median(setups), "s")
	res.set("infer_mb_per_s", finite(median(mbps)), "MB/s")
	res.set("cpu_ms_per_mb", finite(median(cpuPerMB)), "ms/MB")
	res.set("rss_mb", finite(median(rss)), "MB")
	return res, nil
}

// classP50 combines the latencies lat[i] of sched[i] into one figure:
// the median of each operation class (route x tenant generator),
// combined by geometric mean. Classes differ several-fold, so a median
// over all requests would sit in a gap between them and jump with the
// mix.
func classP50(sched []request, lat []float64) float64 {
	by := make([][]float64, numRoutes*len(tenantGenerators))
	for i, r := range sched {
		c := r.route*len(tenantGenerators) + r.tenant%len(tenantGenerators)
		by[c] = append(by[c], lat[i])
	}
	var p50s []float64
	for _, ls := range by {
		if len(ls) > 0 {
			p50s = append(p50s, median(ls))
		}
	}
	return geomean(p50s)
}

// checkTenants compares every touched tenant's served schema with
// offline inference over the records of its acknowledged ingests.
func checkTenants(ctx context.Context, e *env, res *result, proc *schemadProc, sched []request, outs []outcome, tenants []tenantSpec) {
	acked := make([][]byte, len(tenants))
	touched := make([]bool, len(tenants))
	for i, r := range sched {
		touched[r.tenant] = true
		if r.route == routeIngest && outs[i].err == nil {
			acked[r.tenant] = append(acked[r.tenant], r.body...)
		}
	}
	for i, t := range tenants {
		if !touched[i] {
			continue
		}
		res.Attempted++
		err := func() error {
			got, err := proc.get(ctx, "/v1/tenants/"+t.name+"/schema?format=codec")
			if err != nil {
				return err
			}
			want, _, err := jsi.Infer(ctx, jsi.FromBytes(acked[i]), jsi.Options{TaggedUnions: t.tagged})
			if err != nil {
				return err
			}
			wantCodec, err := want.MarshalJSON()
			if err != nil {
				return err
			}
			return sameSchema(got, wantCodec)
		}()
		if err != nil {
			res.fail(1)
			fmt.Fprintf(e.log, "  tenant %s: %v\n", t.name, err)
		}
	}
}

// openLoopShare is the part of the measured seconds the open-loop
// traffic is scheduled over; the burst passes take the rest.
const openLoopShare = 0.4

func openLoopTime(seconds time.Duration) time.Duration {
	return time.Duration(float64(seconds) * openLoopShare)
}

// burstBatches is how many ingest batches of ingestRecords records
// each generator sends in one burst pass (about 20 MB in all).
const burstBatches = 80

// burstPass is one saturation pass: burstBatches ingests for each
// generator, back to back over the run's connections, into a fresh
// tenant per generator.
type burstPass struct {
	requests int
	bytes    int64
	wall     time.Duration
	cpu      time.Duration // schemad's user + system CPU during the pass
	scale    hostScale     // from the probe runs on either side
}

// burstBodies generates each generator's burst batches from the seed.
// Every pass sends the same batches, in equal numbers per generator:
// the generators' records cost several-fold different amounts per MB,
// so a share that moved with the seed would move the figures.
func burstBodies(seed int64) ([][][]byte, error) {
	out := make([][][]byte, len(tenantGenerators))
	for gi, name := range tenantGenerators {
		g, err := dataset.New(name)
		if err != nil {
			return nil, err
		}
		data := dataset.NDJSON(g, burstBatches*ingestRecords, seed*1_000_003+int64(schemadTenants+gi))
		l := bytes.SplitAfter(data, []byte("\n"))
		lines := l[:len(l)-1]
		for cur := 0; cur < len(lines); {
			var body []byte
			body, cur = joinLines(lines, cur, ingestRecords)
			out[gi] = append(out[gi], body)
		}
	}
	return out, nil
}

// runBursts runs burst passes until the deadline, at least one, each
// bracketed by probe runs. The open loop's latency at 50 requests/s is
// mostly waiting on a lightly loaded host, and it moved up to 2.5x with
// the host's phase while the probe moved 1.4x; a saturated server's
// throughput is CPU-bound like a CLI pass and follows the probe.
// Afterwards every pass's tenants must serve the schema offline
// inference gives over the same batches.
func runBursts(ctx context.Context, e *env, res *result, proc *schemadProc, burst [][][]byte, conns int, probe *hostProbe, deadline time.Time) ([]burstPass, error) {
	pid := proc.cmd.Process.Pid
	var passes []burstPass
	before := probe.run()
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Generator by generator, so that each tenant is loaded once.
		var reqs []request
		var size int64
		for gi, bodies := range burst {
			name := tenantGenerators[gi]
			proc.tenants = append(proc.tenants, tenantSpec{name: fmt.Sprintf("b%d-%s", k, name), dataset: name, tagged: taggedGenerator(name)})
			for _, b := range bodies {
				reqs = append(reqs, request{route: routeIngest, tenant: len(proc.tenants) - 1, body: b})
				size += int64(len(b))
			}
		}
		cpu0, err := processCPU(pid)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		bouts := openLoop(ctx, reqs, conns, proc.do)
		wall := time.Since(t0)
		cpu1, err := processCPU(pid)
		if err != nil {
			return nil, err
		}
		after := probe.run()
		for i, o := range bouts {
			res.Attempted++
			if o.err != nil {
				res.fail(1)
				if res.Failed <= 5 {
					fmt.Fprintf(e.log, "  burst %d request %d: %v\n", k, i, o.err)
				}
			}
		}
		passes = append(passes, burstPass{requests: len(reqs), bytes: size, wall: wall, cpu: cpu1 - cpu0, scale: scaleBetween(before, after)})
		before = after
	}
	for gi, bodies := range burst {
		name := tenantGenerators[gi]
		want, _, err := jsi.Infer(ctx, jsi.FromBytes(bytes.Join(bodies, nil)), jsi.Options{TaggedUnions: taggedGenerator(name)})
		if err != nil {
			return nil, err
		}
		wantCodec, err := want.MarshalJSON()
		if err != nil {
			return nil, err
		}
		for k := range passes {
			res.Attempted++
			tenant := fmt.Sprintf("b%d-%s", k, name)
			got, err := proc.get(ctx, "/v1/tenants/"+tenant+"/schema?format=codec")
			if err == nil {
				err = sameSchema(got, wantCodec)
			}
			if err != nil {
				res.fail(1)
				fmt.Fprintf(e.log, "  tenant %s: %v\n", tenant, err)
			}
		}
	}
	return passes, nil
}

// clockTicks is the unit of the CPU times in /proc/PID/stat (USER_HZ,
// 100 on Linux).
const clockTicks = 100

// processCPU reads a running process's user + system CPU time from
// /proc/PID/stat.
func processCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is in parentheses and may hold spaces; utime
	// and stime are the 12th and 13th fields after it.
	i := bytes.LastIndexByte(data, ')')
	var f []string
	if i >= 0 {
		f = strings.Fields(string(data[i+1:]))
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %q", pid, data)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// traceSchemad is the traced run of schemad-mixed: the same schedule
// replayed in-process through the serving layers and, per ingest body,
// through the inference layers. e2eP50 (e2e.op_p50_ms) and lags come
// from the loopback run that preceded it.
func traceSchemad(ctx context.Context, e *env, res *result, sched []request, tenants []tenantSpec, e2eP50 float64, lags []float64) (*result, error) {
	tr := NewTracer()
	sv, err := replayServing(ctx, e.path("replay"), sched, tenants, schemadMaxTenants, tr, "infer.batch")
	if err != nil {
		return nil, err
	}
	res.Attempted += sv.attempted
	res.fail(sv.failed)

	var c replayCounts
	var oneWorker, untraced, traced time.Duration
	for _, r := range sched {
		if r.route != routeIngest {
			continue
		}
		t := tenants[r.tenant]
		fz := t.fusion()
		opts := t.options()
		opts.Workers = 1
		t0 := time.Now()
		want, _, err := jsi.Infer(ctx, jsi.FromChunkedReader(bytes.NewReader(r.body)), opts)
		if err != nil {
			return nil, err
		}
		oneWorker += time.Since(t0)

		t0 = time.Now()
		plain := newLayerReplay(fz, nil)
		if err := plain.feed(bytes.NewReader(r.body)); err != nil {
			return nil, err
		}
		plainT := plain.result()
		untraced += time.Since(t0)

		t0 = time.Now()
		rp := newLayerReplay(fz, tr)
		if err := rp.feed(bytes.NewReader(r.body)); err != nil {
			return nil, err
		}
		tracedT := rp.result()
		traced += time.Since(t0)
		c.add(rp)
		if err := lexPass(bytes.NewReader(r.body), tr); err != nil {
			return nil, err
		}

		res.Attempted++
		got, err := types.MarshalJSON(plainT)
		if err != nil {
			return nil, err
		}
		wantCodec, err := want.MarshalJSON()
		if err != nil {
			return nil, err
		}
		if err := sameSchema(got, wantCodec); err != nil || !types.Equal(plainT, tracedT) {
			res.fail(1)
			fmt.Fprintf(e.log, "  replayed ingest for %s differs from jsi.Infer: %v\n", t.name, err)
		}
	}

	spans := tr.Spans()
	setLayerMetrics(res, spans, c, ms(oneWorker), ms(untraced), ms(traced))
	res.set("fusion.fused_nodes", float64(sv.fusedNodes), "count")
	res.set("infer.batch_ms", finite(median(Durations(spans, "infer.batch"))), "ms")
	res.set("mapreduce.task_ms", sv.taskMS, "ms")
	res.set("mapreduce.queue_wait_ms", sv.waitMS, "ms")
	res.set("mapreduce.utilization", finite(median(sv.utils)), "ratio")
	// replayServing sent sched in order, one serving.* span each.
	var handler []float64
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "serving.") {
			handler = append(handler, ms(sp.Dur()))
		}
	}
	res.set("e2e.op_p50_ms", finite(e2eP50), "ms")
	res.set("transport.overhead_ms", finite(e2eP50-classP50(sched, handler)), "ms")
	res.set("loadgen.lag_ms", percentile(lags, 99), "ms")
	sv.set(res, spans)
	return res, writeTrace(e, "schemad-mixed", tr)
}

// schemadProc is a schemad child process on a loopback port.
type schemadProc struct {
	cmd     *exec.Cmd
	base    string
	tenants []tenantSpec
	client  *http.Client
	waited  chan struct{}
	werr    error
}

// listenWatcher receives schemad's stderr and reports the listening
// address from its start-up line.
type listenWatcher struct {
	mu    sync.Mutex
	buf   []byte
	found chan string
	once  sync.Once
}

const listenPrefix = "schemad listening on http://"

func (w *listenWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) < 1<<16 {
		w.buf = append(w.buf, p...)
	}
	if i := bytes.Index(w.buf, []byte(listenPrefix)); i >= 0 {
		rest := w.buf[i+len(listenPrefix):]
		if j := bytes.IndexByte(rest, '\n'); j >= 0 {
			addr := string(rest[:j])
			w.once.Do(func() { w.found <- addr })
		}
	}
	return len(p), nil
}

// startSchemad starts schemad with default flags apart from a loopback
// port, the data directory and the resident-tenant cap, and returns
// once /healthz answers.
func startSchemad(bin, dataDir string, conns int, tenants []tenantSpec) (*schemadProc, error) {
	w := &listenWatcher{found: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir,
		"-max-tenants", strconv.Itoa(schemadMaxTenants))
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &schemadProc{cmd: cmd, tenants: tenants, waited: make(chan struct{})}
	go func() {
		p.werr = cmd.Wait()
		close(p.waited)
	}()
	p.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	select {
	case addr := <-w.found:
		p.base = "http://" + addr
	case <-p.waited:
		return nil, fmt.Errorf("schemad exited at start-up: %v: %s", p.werr, w.buf)
	case <-time.After(30 * time.Second):
		_, err := p.stop()
		return nil, errors.Join(errors.New("schemad did not announce its address"), err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := p.client.Get(p.base + "/healthz")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
			if err == nil && resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			_, serr := p.stop()
			return nil, errors.Join(fmt.Errorf("schemad /healthz: %v", err), serr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sampleRSS reads the resident set of process pid every interval until
// stop is closed and returns the samples in MB. The peak of a server
// that allocates a 4 MiB chunk buffer per ingest depends on where the
// garbage collector happens to run; the level it serves at does not.
func sampleRSS(pid int, every time.Duration, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			if n, err := residentBytes(pid); err == nil {
				out = append(out, mb(n))
			}
		}
	}
}

// residentBytes reads a process's resident set size from /proc.
func residentBytes(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/%d/statm: %q", pid, data)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}

// usage is what the kernel reports for an exited child.
type usage struct {
	cpu time.Duration // user + system
	rss int64         // peak resident set, bytes
}

// stop sends SIGTERM (schemad drains and snapshots its tenants), waits
// for the exit and returns the child's resource usage. It kills the
// child if it has not exited after a minute.
func (p *schemadProc) stop() (usage, error) {
	p.client.CloseIdleConnections()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return usage{}, err
	}
	var kerr error
	select {
	case <-p.waited:
	case <-time.After(time.Minute):
		if kerr = p.cmd.Process.Kill(); errors.Is(kerr, os.ErrProcessDone) {
			kerr = nil
		}
		<-p.waited
	}
	var u usage
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.rss = ru.Maxrss * 1024
	}
	if err := errors.Join(kerr, p.werr); err != nil {
		return u, fmt.Errorf("schemad: %w", err)
	}
	return u, nil
}

// do performs one scheduled request and requires a 200.
func (p *schemadProc) do(ctx context.Context, r *request) error {
	method, path := r.url(p.tenants[r.tenant])
	_, err := p.call(ctx, method, path, r.body)
	return err
}

// get fetches path and returns the body of a 200 response.
func (p *schemadProc) get(ctx context.Context, path string) ([]byte, error) {
	return p.call(ctx, http.MethodGet, path, nil)
}

// call sends one request and returns the response body, or an error
// unless the status is 200.
func (p *schemadProc) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, rerr := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		return nil, rerr
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// counters reads schemad's /v1/metrics counters.
func (p *schemadProc) counters(ctx context.Context) (map[string]int64, error) {
	data, err := p.get(ctx, "/v1/metrics")
	if err != nil {
		return nil, err
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	return m.Counters, nil
}
