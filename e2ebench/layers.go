package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"

	jsi "repro"
	"repro/internal/fusion"
	"repro/internal/serving"
)

// replayCounts are the fuse-call and record tallies of one or more
// traced layer replays.
type replayCounts struct {
	records, fuseCalls, unchanged, reused int64
}

func (c *replayCounts) add(r *layerReplay) {
	c.records += r.records
	c.fuseCalls += r.fuseCalls
	c.unchanged += r.unchanged
	c.reused += r.reused
}

// inferenceLayers are the spans whose self times make up the inference
// path; their sum over a single-worker run's wall time is the trace
// coverage.
var inferenceLayers = []string{"jsontext.split", "infer.decode", "stats.summary", "fusion.simplify", "fusion.fuse", "pipeline.combine"}

// setLayerMetrics reports the inference-layer figures of the traced
// replay. oneWorker is the wall time of the library's own single-worker
// run over the same input; untraced and traced are the replay's wall
// times without and with tracing.
func setLayerMetrics(res *result, spans []Span, c replayCounts, oneWorker, untraced, traced float64) {
	tot := SelfTimes(spans)
	self := func(name string) float64 { return ms(tot[name].Self) }
	res.set("jsontext.split_ms", self("jsontext.split"), "ms")
	res.set("jsontext.lex_ms", self("jsontext.lex"), "ms")
	res.set("jsontext.lex_allocs", float64(tot["jsontext.lex"].Allocs), "count")
	res.set("infer.decode_ms", self("infer.decode"), "ms")
	res.set("infer.decode_allocs", float64(tot["infer.decode"].Allocs), "count")
	res.set("infer.records", float64(c.records), "count")
	res.set("stats.summary_ms", self("stats.summary"), "ms")
	res.set("fusion.simplify_ms", self("fusion.simplify"), "ms")
	res.set("fusion.simplify_allocs", float64(tot["fusion.simplify"].Allocs), "count")
	res.set("fusion.fuse_ms", self("fusion.fuse"), "ms")
	res.set("fusion.fuse_allocs", float64(tot["fusion.tree"].Allocs), "count")
	res.set("fusion.fuse_calls", float64(c.fuseCalls), "count")
	res.set("fusion.fuse_unchanged_ratio", ratio(c.unchanged, c.fuseCalls), "ratio")
	res.set("fusion.fuse_reused_ratio", ratio(c.reused, c.fuseCalls), "ratio")
	res.set("pipeline.combine_ms", self("pipeline.combine"), "ms")
	var layers float64
	for _, name := range inferenceLayers {
		layers += self(name)
	}
	res.set("trace.coverage", layers/oneWorker, "ratio")
	res.set("trace.overhead_pct", (traced-untraced)/untraced*100, "%")
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// tenantSpec is one schemad tenant: its generator and whether its
// ingests ask for tagged-union inference.
type tenantSpec struct {
	name    string
	dataset string
	tagged  bool
}

// servingIngestWorkers is schemad's default -ingest-workers.
const servingIngestWorkers = 2

func (t tenantSpec) options() jsi.Options {
	return jsi.Options{Workers: servingIngestWorkers, TaggedUnions: t.tagged}
}

// fusion is the fusion policy options() resolves to inside the library,
// for the layer replay.
func (t tenantSpec) fusion() fusion.Options {
	if t.tagged {
		return fusion.Options{Strategy: fusion.Tagged{Inner: fusion.Paper{}}}
	}
	return fusion.Options{}
}

// url is the request's path and query on schemad.
func (r *request) url(t tenantSpec) (method, path string) {
	switch r.route {
	case routeIngest:
		path = "/v1/tenants/" + t.name + "/ingest"
		if t.tagged {
			path += "?tagged=true"
		}
		return http.MethodPost, path
	case routeValidate:
		return http.MethodPost, "/v1/tenants/" + t.name + "/validate"
	default:
		return http.MethodGet, "/v1/tenants/" + t.name + "/schema?format=codec"
	}
}

// servingReplay is the outcome of replaying a request sequence through
// the serving layers in-process.
type servingReplay struct {
	attempted, failed int64
	hitRatio          float64 // 1 - tenant loads / tenant requests
	evictions         int64
	fusedNodes        int // largest tenant schema
	taskMS, waitMS    float64
	utils             []float64
}

// replayServing replays reqs, in order, through serving.Server's
// ServeHTTP with httptest (no sockets), one span per request named
// after its route. It then replays them through the library calls the
// handlers make — jsi.Infer per ingest body, Repository.Append,
// Schema.Contains per validated record — and saves and reloads every
// tenant's repository. inferSpan names the span around each ingest's
// jsi.Infer call ("" for none); with it set, each call also runs with
// a fresh Collector for the engine counters.
func replayServing(ctx context.Context, dir string, reqs []request, tenants []tenantSpec, maxTenants int, tr *Tracer, inferSpan string) (*servingReplay, error) {
	srv, err := serving.New(serving.Config{DataDir: dir, MaxResidentTenants: maxTenants})
	if err != nil {
		return nil, err
	}
	sv := &servingReplay{}
	for i := range reqs {
		r := &reqs[i]
		method, path := r.url(tenants[r.tenant])
		hreq := httptest.NewRequest(method, path, bytes.NewReader(r.body))
		rec := httptest.NewRecorder()
		sp := tr.Begin("serving." + routeNames[r.route])
		srv.ServeHTTP(rec, hreq)
		tr.End(sp)
		sv.attempted++
		if rec.Code != http.StatusOK {
			sv.failed++
		}
	}
	m := srv.Metrics()
	sv.hitRatio = 1 - float64(m.Counters["schemad_tenant_loads"])/float64(len(reqs))
	sv.evictions = m.Counters["schemad_evictions"]

	repos := make([]*jsi.Repository, len(tenants))
	for i := range reqs {
		r := &reqs[i]
		t := tenants[r.tenant]
		if repos[r.tenant] == nil {
			repos[r.tenant] = jsi.NewRepository()
		}
		repo := repos[r.tenant]
		switch r.route {
		case routeIngest:
			opts := t.options()
			var c *jsi.Collector
			sp := -1
			if inferSpan != "" {
				c = jsi.NewCollector()
				opts.Collector = c
				sp = tr.Begin(inferSpan)
			}
			s, st, err := jsi.Infer(ctx, jsi.FromChunkedReader(bytes.NewReader(r.body)), opts)
			tr.End(sp)
			sv.attempted++
			if err != nil {
				sv.failed++
				continue
			}
			if c != nil {
				cm := c.Metrics()
				sv.taskMS += float64(cm.Histograms["mapreduce_task_ns"].Sum) / 1e6
				sv.waitMS += float64(cm.Histograms["mapreduce_queue_wait_ns"].Sum) / 1e6
				sv.utils = append(sv.utils, float64(cm.Gauges["mapreduce_utilization_permille"])/1000)
			}
			sp = tr.Begin("schemarepo.append")
			repo.Append("default", s, st.Records)
			tr.End(sp)
		case routeValidate:
			schema := repo.Schema()
			sp := tr.Begin("validate.contains")
			for _, line := range bytes.SplitAfter(r.body, []byte("\n")) {
				if len(bytes.TrimSpace(line)) == 0 {
					continue
				}
				if _, err := schema.Contains(line); err != nil {
					sv.failed++
				}
			}
			tr.End(sp)
			sv.attempted++
		}
	}
	for _, repo := range repos {
		if repo == nil {
			continue
		}
		if n := repo.Schema().Size(); n > sv.fusedNodes {
			sv.fusedNodes = n
		}
		var buf bytes.Buffer
		sp := tr.Begin("schemarepo.snapshot_save")
		err := repo.Save(&buf)
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("snapshot save: %w", err)
		}
		sp = tr.Begin("schemarepo.snapshot_load")
		_, err = jsi.LoadRepository(&buf)
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("snapshot load: %w", err)
		}
	}
	return sv, nil
}

// set reports the serving-layer figures: per-call medians of each
// layer's spans, and the replay's tenant counters.
func (sv *servingReplay) set(res *result, spans []Span) {
	for _, name := range []string{"serving.ingest", "serving.validate", "serving.schema_get",
		"schemarepo.append", "schemarepo.snapshot_load", "schemarepo.snapshot_save", "validate.contains"} {
		res.set(name+"_ms", finite(median(Durations(spans, name))), "ms")
	}
	res.set("serving.tenant_hit_ratio", sv.hitRatio, "ratio")
	res.set("serving.evictions", float64(sv.evictions), "count")
}
