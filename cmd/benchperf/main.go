// Command benchperf measures the inference pipeline's cost per dataset
// and writes the result as JSON (the BENCH_perf.json artifact CI
// uploads).
//
// For each paper dataset it benchmarks the public InferNDJSON pipeline
// three times over the same synthetic data — Options zero value,
// Options.Enrich "all", and Options.TaggedUnions — recording ns/op,
// B/op, allocs/op, the exact distinct-type count the run reports, and
// the enrichment lattice's and tagged-union policy's overheads over
// the default run. The headline compares InferNDJSON/twitter against
// the committed observability baseline (-baseline BENCH_obs.json,
// whose nil_recorder_ns_per_op was measured on the same workload);
// docs/PERFORMANCE.md explains how to read the report.
//
// The report also tracks drift: -prev (default BENCH_perf.json, i.e.
// the committed artifact when run from the repo root) supplies the
// previous report, and pipeline_overhead_pct records how far this
// run's twitter ns/op sits above it. The budget is 5%; a missing or
// unreadable -prev file skips the comparison so fresh checkouts still
// work.
//
// Usage:
//
//	benchperf [-records 10000] [-baseline BENCH_obs.json] [-prev BENCH_perf.json] [-o BENCH_perf.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchperf:", err)
		os.Exit(1)
	}
}

// Measurement is one benchmarked configuration of the pipeline.
type Measurement struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"b_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// DatasetResult measures the pipeline on one dataset.
type DatasetResult struct {
	Dataset string `json:"dataset"`
	// Records is the number of records inferred per iteration.
	Records int `json:"records"`
	// DistinctTypes is the exact count the default run reports
	// (Stats.DistinctTypes).
	DistinctTypes int         `json:"distinct_types"`
	Default       Measurement `json:"default"`
	// Enriched measures the same workload with every enrichment monoid
	// on (Options.Enrich "all"); EnrichOverheadPct is its ns/op above
	// Default — the documented, paid-only-when-asked-for cost of the
	// lattice (docs/ENRICHMENT.md). Enrichment off stays covered by the
	// Default measurement and the 5% pipeline_overhead_pct budget.
	Enriched          Measurement `json:"enriched"`
	EnrichOverheadPct float64     `json:"enrich_overhead_pct"`
	// Tagged measures the same workload with the tagged-union policy on
	// (Options.TaggedUnions); TaggedOverheadPct is its ns/op above
	// Default — the paid-only-when-asked-for cost of discriminator
	// promotion and the Variants merge (docs/UNIONS.md). The default
	// policy stays covered by the Default measurement and the 5%
	// pipeline_overhead_pct budget.
	Tagged            Measurement `json:"tagged"`
	TaggedOverheadPct float64     `json:"tagged_overhead_pct"`
}

// Report is the schema of BENCH_perf.json.
type Report struct {
	// Benchmark identifies the headline workload; Datasets holds the
	// full per-dataset grid.
	Benchmark string          `json:"benchmark"`
	Datasets  []DatasetResult `json:"datasets"`
	// BaselineNsPerOp is nil_recorder_ns_per_op from the BENCH_obs.json
	// passed via -baseline: the committed measurement of the same
	// InferNDJSON/twitter workload.
	BaselineNsPerOp int64 `json:"baseline_ns_per_op,omitempty"`
	// HeadlineNsImprovementPct is twitter default versus that baseline
	// (positive = faster).
	HeadlineNsImprovementPct *float64 `json:"headline_ns_improvement_pct,omitempty"`
	// PrevDedupNsPerOp is the twitter default ns/op read from the
	// previous report (-prev): the committed measurement of the
	// deduplicating chunked path, predating this run.
	// PipelineOverheadPct is how far this run's twitter ns/op sits above
	// it (positive = regression, budget 5%). Both are omitted when no
	// previous report is available.
	PrevDedupNsPerOp    int64    `json:"prev_dedup_ns_per_op,omitempty"`
	PipelineOverheadPct *float64 `json:"pipeline_overhead_pct,omitempty"`
	// HeadlineTaggedOverheadPct is the flagship workload's
	// tagged_overhead_pct (twitter): what switching the headline
	// InferNDJSON run to the tagged-union policy costs over the default
	// strategy (docs/UNIONS.md).
	HeadlineTaggedOverheadPct float64 `json:"headline_tagged_overhead_pct"`
}

// obsBaseline is the slice of BENCH_obs.json benchperf reads.
type obsBaseline struct {
	NilRecorderNsPerOp int64 `json:"nil_recorder_ns_per_op"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The default workload matches cmd/benchobs (twitter, 10k records,
	// seed 1) so the committed baseline compares like for like.
	records := fs.Int("records", 10_000, "records in each synthetic benchmark dataset")
	baseline := fs.String("baseline", "", "BENCH_obs.json to read the ns/op baseline from (empty = skip)")
	prev := fs.String("prev", "BENCH_perf.json", "previous BENCH_perf.json for the pipeline_overhead_pct headline (missing or empty = skip)")
	outPath := fs.String("o", "", "write the JSON report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep := Report{Benchmark: "InferNDJSON/twitter"}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		var obs obsBaseline
		if err := json.Unmarshal(raw, &obs); err != nil {
			return fmt.Errorf("baseline %s: %w", *baseline, err)
		}
		rep.BaselineNsPerOp = obs.NilRecorderNsPerOp
	}
	prevNs := prevDedupNsPerOp(*prev)

	for _, name := range dataset.PaperNames() {
		g, err := dataset.New(name)
		if err != nil {
			return err
		}
		data := dataset.NDJSON(g, *records, 1)

		_, st, err := jsi.InferNDJSON(data, jsi.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}

		res := DatasetResult{
			Dataset:       name,
			Records:       *records,
			DistinctTypes: st.DistinctTypes,
			Default:       measure(data, jsi.Options{}),
			Enriched:      measure(data, jsi.Options{Enrich: []string{"all"}}),
			Tagged:        measure(data, jsi.Options{TaggedUnions: true}),
		}
		res.EnrichOverheadPct = -pctBelow(res.Enriched.NsPerOp, res.Default.NsPerOp)
		res.TaggedOverheadPct = -pctBelow(res.Tagged.NsPerOp, res.Default.NsPerOp)
		rep.Datasets = append(rep.Datasets, res)

		if name == "twitter" {
			rep.HeadlineTaggedOverheadPct = res.TaggedOverheadPct
			if rep.BaselineNsPerOp > 0 {
				p := pctBelow(res.Default.NsPerOp, rep.BaselineNsPerOp)
				rep.HeadlineNsImprovementPct = &p
			}
			if prevNs > 0 {
				rep.PrevDedupNsPerOp = prevNs
				p := -pctBelow(res.Default.NsPerOp, prevNs)
				rep.PipelineOverheadPct = &p
			}
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		_, err := stdout.Write(enc)
		return err
	}
	return os.WriteFile(*outPath, enc, 0o644)
}

// prevDedupNsPerOp reads the twitter default ns/op out of a previous
// report, or 0 when the path is empty, missing or not a report — the
// comparison is best-effort so fresh checkouts and ad-hoc runs work.
func prevDedupNsPerOp(path string) int64 {
	if path == "" {
		return 0
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	var old Report
	if json.Unmarshal(raw, &old) != nil {
		return 0
	}
	for _, d := range old.Datasets {
		if d.Dataset == "twitter" {
			return d.Default.NsPerOp
		}
	}
	return 0
}

// measure benchmarks InferNDJSON over data with the given options.
func measure(data []byte, opts jsi.Options) Measurement {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := jsi.InferNDJSON(data, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	return Measurement{
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// pctBelow reports how far got sits below base, in percent (positive
// when got is smaller, i.e. an improvement).
func pctBelow(got, base int64) float64 {
	return (float64(base) - float64(got)) / float64(base) * 100
}
