package jsoninference_test

// Differential oracle: the parallel chunked pipeline must be
// byte-identical to a sequential single-worker run. The paper's
// distribution strategy stands on the fusion laws (Theorems 5.4 and
// 5.5) — associativity and commutativity make chunking, scheduling and
// worker count invisible in the result — so any divergence here is a
// bug in the engine or in fusion, caught by comparing canonical schema
// bytes rather than trusting either side.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/stats"
	"repro/internal/types"
)

// canonical renders a schema to its canonical codec bytes.
func canonical(t *testing.T, s *jsi.Schema) []byte {
	t.Helper()
	b, err := s.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	return b
}

// referenceFold infers data without the pipeline: one decoder over the
// whole buffer, Simplify, a left fold of Fuse and Finalize under fz,
// with Stats from stats.Summary. It shares no code with the chunked
// map stage, the accumulators or the engine, so it is an independent
// reference for the canonical schema bytes and the type statistics.
func referenceFold(data []byte, fz fusion.Options) ([]byte, jsi.Stats, error) {
	var pr infer.Promoter
	if p := fz.Promoter(); p != nil {
		pr = p
	}
	ts, err := infer.InferAllWith(data, nil, pr)
	if err != nil {
		return nil, jsi.Stats{}, err
	}
	var sum stats.Summary
	acc := types.Type(types.Empty)
	for _, t := range ts {
		sum.Add(t)
		acc = fz.Fuse(acc, fz.Simplify(t))
	}
	codec, err := types.MarshalJSON(fz.Finalize(acc))
	if err != nil {
		return nil, jsi.Stats{}, err
	}
	return codec, jsi.Stats{
		Records:       sum.Count(),
		DistinctTypes: sum.Distinct(),
		MinTypeSize:   sum.MinSize(),
		MaxTypeSize:   sum.MaxSize(),
		AvgTypeSize:   sum.AvgSize(),
	}, nil
}

// sameTypeStats reports whether two Stats agree on the type-level
// figures (records, distinct types and type sizes).
func sameTypeStats(a, b jsi.Stats) bool {
	return a.Records == b.Records && a.DistinctTypes == b.DistinctTypes &&
		a.MinTypeSize == b.MinTypeSize && a.MaxTypeSize == b.MaxTypeSize && a.AvgTypeSize == b.AvgTypeSize
}

// TestDifferentialParallelVsSequential compares, per dataset, a
// 1-worker in-memory reference run against parallel in-memory runs,
// the streaming decoder, and the bounded-memory file pipeline with a
// deliberately tiny chunk size (many more chunks than workers).
func TestDifferentialParallelVsSequential(t *testing.T) {
	dir := t.TempDir()
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 300, 59)

		refSchema, refStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: sequential reference: %v", name, err)
		}
		ref := canonical(t, refSchema)
		foldBytes, foldStats, err := referenceFold(data, fusion.Options{})
		if err != nil {
			t.Fatalf("%s: reference fold: %v", name, err)
		}
		if !bytes.Equal(ref, foldBytes) {
			t.Errorf("%s: sequential run diverged from the reference fold\n got: %s\nwant: %s", name, ref, foldBytes)
		}
		if !sameTypeStats(refStats, foldStats) {
			t.Errorf("%s: sequential stats %+v, reference fold %+v", name, refStats, foldStats)
		}

		check := func(label string, s *jsi.Schema, st jsi.Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %s: %v", name, label, err)
			}
			if got := canonical(t, s); !bytes.Equal(got, ref) {
				t.Errorf("%s: %s schema diverged\n got: %s\nwant: %s", name, label, got, ref)
			}
			if st.Records != refStats.Records {
				t.Errorf("%s: %s Records = %d, want %d", name, label, st.Records, refStats.Records)
			}
		}

		for _, workers := range []int{2, 8} {
			s, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: workers})
			check(fmt.Sprintf("parallel %d", workers), s, st, err)
		}

		s, st, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), jsi.Options{})
		check("streaming", s, st, err)

		path := filepath.Join(dir, name+".ndjson")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, st, err = jsi.Infer(context.Background(), jsi.FromFile(path), jsi.Options{Workers: 8, ChunkBytes: 1 << 10})
		check("file pipeline", s, st, err)
	}
}

// TestDifferentialTaggedUnions re-runs the parallel-vs-sequential
// oracle with the tagged-union policy on. The Variants merge is part of
// the fusion monoid, so the same guarantee must hold: worker count and
// source (in-memory, streaming, file pipeline) are invisible in the
// canonical schema bytes, which also equal the reference fold's. The test also requires that
// at least one dataset actually infers a variants node, so it cannot
// pass vacuously with the policy silently disabled.
func TestDifferentialTaggedUnions(t *testing.T) {
	dir := t.TempDir()
	sawVariants := false
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 300, 59)

		opts := func(extra jsi.Options) jsi.Options {
			extra.TaggedUnions = true
			return extra
		}
		refSchema, refStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts(jsi.Options{Workers: 1}))
		if err != nil {
			t.Fatalf("%s: tagged sequential reference: %v", name, err)
		}
		ref := canonical(t, refSchema)
		if bytes.Contains(ref, []byte(`"variants"`)) {
			sawVariants = true
		}
		foldBytes, _, err := referenceFold(data, fusion.Options{Strategy: fusion.Tagged{}})
		if err != nil {
			t.Fatalf("%s: tagged reference fold: %v", name, err)
		}
		if !bytes.Equal(ref, foldBytes) {
			t.Errorf("%s: tagged sequential run diverged from the reference fold\n got: %s\nwant: %s", name, ref, foldBytes)
		}

		check := func(label string, s *jsi.Schema, st jsi.Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: tagged %s: %v", name, label, err)
			}
			if got := canonical(t, s); !bytes.Equal(got, ref) {
				t.Errorf("%s: tagged %s schema diverged\n got: %s\nwant: %s", name, label, got, ref)
			}
			if st.Records != refStats.Records {
				t.Errorf("%s: tagged %s Records = %d, want %d", name, label, st.Records, refStats.Records)
			}
		}

		for _, workers := range []int{2, 8} {
			s, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts(jsi.Options{Workers: workers}))
			check(fmt.Sprintf("parallel %d", workers), s, st, err)
		}

		s, st, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), opts(jsi.Options{}))
		check("streaming", s, st, err)

		path := filepath.Join(dir, name+".ndjson")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, st, err = jsi.Infer(context.Background(), jsi.FromFile(path), opts(jsi.Options{Workers: 8, ChunkBytes: 1 << 10}))
		check("file pipeline", s, st, err)

		// The JSON Schema export of a tagged run must also be stable
		// across execution strategies (oneOf branch order is canonical).
		refJS, err := refSchema.JSONSchema()
		if err != nil {
			t.Fatalf("%s: JSONSchema: %v", name, err)
		}
		parSchema, _, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts(jsi.Options{Workers: 8}))
		if err != nil {
			t.Fatalf("%s: tagged parallel for JSONSchema: %v", name, err)
		}
		parJS, err := parSchema.JSONSchema()
		if err != nil {
			t.Fatalf("%s: JSONSchema parallel: %v", name, err)
		}
		if !bytes.Equal(parJS, refJS) {
			t.Errorf("%s: tagged JSON Schema export diverged\n got: %s\nwant: %s", name, parJS, refJS)
		}
	}
	if !sawVariants {
		t.Error("no dataset inferred a variants node: the tagged policy never fired")
	}
}

// TestDifferentialEnrichmentTransparent pins the two enrichment
// contracts on every dataset generator. First, enrichment is purely
// additive: with Options.Enrich on, the structural schema bytes and
// the full Stats struct are identical to a run without it. Second,
// enrichment is deterministic: the annotated JSON Schema and the
// per-path report are byte-identical whatever the worker count, chunk
// size, or source (in-memory, streaming, file pipeline), because the
// enrichment lattice merges under the same commutative-monoid laws as
// fusion.
func TestDifferentialEnrichmentTransparent(t *testing.T) {
	dir := t.TempDir()
	enrich := []string{"all"}
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 300, 59)

		plainSchema, plainStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: plain reference: %v", name, err)
		}
		refSchema, refStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data),
			jsi.Options{Workers: 1, Enrich: enrich})
		if err != nil {
			t.Fatalf("%s: enriched reference: %v", name, err)
		}

		// Additive: same structural bytes, same stats, field for field.
		if got, want := canonical(t, refSchema), canonical(t, plainSchema); !bytes.Equal(got, want) {
			t.Errorf("%s: enrichment changed the structural schema\n got: %s\nwant: %s", name, got, want)
		}
		if refStats != plainStats {
			t.Errorf("%s: enrichment changed Stats\n got: %+v\nwant: %+v", name, refStats, plainStats)
		}
		if !refSchema.Enriched() {
			t.Fatalf("%s: enriched run reports Enriched() = false", name)
		}

		wantJS, err := refSchema.JSONSchema()
		if err != nil {
			t.Fatal(err)
		}
		wantReport, err := refSchema.EnrichmentJSON()
		if err != nil {
			t.Fatal(err)
		}

		check := func(label string, s *jsi.Schema, st jsi.Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %s: %v", name, label, err)
			}
			js, jerr := s.JSONSchema()
			if jerr != nil {
				t.Fatal(jerr)
			}
			if !bytes.Equal(js, wantJS) {
				t.Errorf("%s: %s annotated schema diverged\n got: %s\nwant: %s", name, label, js, wantJS)
			}
			rep, rerr := s.EnrichmentJSON()
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(rep, wantReport) {
				t.Errorf("%s: %s enrichment report diverged\n got: %s\nwant: %s", name, label, rep, wantReport)
			}
			if st.Records != refStats.Records {
				t.Errorf("%s: %s Records = %d, want %d", name, label, st.Records, refStats.Records)
			}
		}

		for _, workers := range []int{2, 8} {
			s, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data),
				jsi.Options{Workers: workers, Enrich: enrich})
			check(fmt.Sprintf("parallel %d", workers), s, st, err)
		}

		s, st, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)),
			jsi.Options{Enrich: enrich})
		check("streaming", s, st, err)

		path := filepath.Join(dir, name+".ndjson")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, st, err = jsi.Infer(context.Background(), jsi.FromFile(path),
			jsi.Options{Workers: 8, ChunkBytes: 1 << 10, Enrich: enrich})
		check("file pipeline", s, st, err)
	}
}

// TestDifferentialDedupStatsAndMetrics pins the chunked path's
// contract beyond schema bytes: at Workers 1, the full type-level Stats
// match the reference fold field for field (DistinctTypes exact), the
// run records its cache counters, and WithoutTimings strips them —
// they depend on scheduling — while keeping the work counters.
func TestDifferentialDedupStatsAndMetrics(t *testing.T) {
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 300, 101)

		c := jsi.NewCollector()
		s, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1, Collector: c})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		foldBytes, foldStats, err := referenceFold(data, fusion.Options{})
		if err != nil {
			t.Fatalf("%s: reference fold: %v", name, err)
		}
		if !bytes.Equal(canonical(t, s), foldBytes) {
			t.Errorf("%s: schema diverged from the reference fold", name)
		}
		if !sameTypeStats(st, foldStats) {
			t.Errorf("%s: stats diverged\n got: %+v\nwant: %+v", name, st, foldStats)
		}

		// The run must actually have recorded its cache counters: every
		// record interns (hits+misses counts every Canon/intern probe).
		m := c.Metrics()
		counters := m.Counters
		if counters["intern_hits"] == 0 || counters["intern_misses"] == 0 {
			t.Errorf("%s: intern counters missing: %v", name, counters)
		}
		stripped := m.WithoutTimings().Counters
		for _, k := range []string{"intern_hits", "intern_misses"} {
			if _, ok := stripped[k]; ok {
				t.Errorf("%s: WithoutTimings kept the cache counter %s", name, k)
			}
		}
		if stripped["infer_records"] != st.Records {
			t.Errorf("%s: WithoutTimings infer_records = %d, want %d", name, stripped["infer_records"], st.Records)
		}
	}
}

// TestDifferentialDedupExactDistinctAcrossSources: the chunked pipeline
// reports the SAME exact DistinctTypes from the in-memory, single-file
// and multi-file paths — FromFiles merges per-file results by type
// identity, so it counts exactly what FromBytes over the concatenation
// counts — while the constant-memory streaming path reports zero.
func TestDifferentialDedupExactDistinctAcrossSources(t *testing.T) {
	dir := t.TempDir()
	g, err := dataset.New("github")
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.NDJSON(g, 400, 7)

	_, want, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, foldStats, err := referenceFold(data, fusion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.DistinctTypes <= 0 || want.DistinctTypes != foldStats.DistinctTypes {
		t.Fatalf("reference distinct count = %d, reference fold counts %d", want.DistinctTypes, foldStats.DistinctTypes)
	}

	_, st, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctTypes != 0 {
		t.Errorf("streaming DistinctTypes = %d, want 0", st.DistinctTypes)
	}

	path := filepath.Join(dir, "all.ndjson")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	_, st, err = jsi.Infer(context.Background(), jsi.FromFile(path), jsi.Options{Workers: 4, ChunkBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTypeStats(st, want) {
		t.Errorf("single-file stats = %+v, want %+v", st, want)
	}

	// Split the buffer across two files that share shapes; identity
	// merging must reproduce the exact global count, not a per-file
	// bound.
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid := len(lines) / 2
	paths := []string{filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson")}
	if err := os.WriteFile(paths[0], bytes.Join(lines[:mid], nil), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], bytes.Join(lines[mid:], nil), 0o600); err != nil {
		t.Fatal(err)
	}
	_, st, err = jsi.Infer(context.Background(), jsi.FromFiles(paths...), jsi.Options{Workers: 4, ChunkBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctTypes != want.DistinctTypes {
		t.Errorf("multi-file DistinctTypes = %d, want %d", st.DistinctTypes, want.DistinctTypes)
	}
	if !sameTypeStats(st, want) {
		t.Errorf("multi-file stats = %+v, want %+v", st, want)
	}
}

// TestDifferentialAdaptiveDeterminism pins the per-chunk choice's core
// promise at real sample sizes: with enough records per chunk for
// per-chunk sampling to complete and degrade decisions to actually
// fire (wikidata's all-distinct records) — or to settle on the
// interned path (twitter's repetitive ones) — the chunked pipeline is
// byte-identical to the reference fold across 1/4/8 workers and the
// bytes and file sources, and the streaming source agrees on the schema
// and type sizes. The shared hint makes the *cost* of a chunk depend
// on scheduling; this test is the proof the *result* does not.
func TestDifferentialAdaptiveDeterminism(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wikidata", "twitter"} {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 1500, 7)
		path := filepath.Join(dir, name+".ndjson")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}

		ref, refStats, err := referenceFold(data, fusion.Options{})
		if err != nil {
			t.Fatalf("%s: reference fold: %v", name, err)
		}

		check := func(label string, s *jsi.Schema, st jsi.Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %s: %v", name, label, err)
			}
			if got := canonical(t, s); !bytes.Equal(got, ref) {
				t.Errorf("%s: %s schema diverged\n got: %s\nwant: %s", name, label, got, ref)
			}
			if st.Records != refStats.Records || st.DistinctTypes != refStats.DistinctTypes {
				t.Errorf("%s: %s stats: records %d/%d distinct %d/%d", name, label,
					st.Records, refStats.Records, st.DistinctTypes, refStats.DistinctTypes)
			}
			if st.MinTypeSize != refStats.MinTypeSize || st.MaxTypeSize != refStats.MaxTypeSize || st.AvgTypeSize != refStats.AvgTypeSize {
				t.Errorf("%s: %s sizes: min %d/%d max %d/%d avg %v/%v", name, label,
					st.MinTypeSize, refStats.MinTypeSize, st.MaxTypeSize, refStats.MaxTypeSize,
					st.AvgTypeSize, refStats.AvgTypeSize)
			}
		}

		for _, workers := range []int{1, 4, 8} {
			s, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data),
				jsi.Options{Workers: workers})
			check(fmt.Sprintf("bytes %dw", workers), s, st, err)

			s, st, err = jsi.Infer(context.Background(), jsi.FromFile(path),
				jsi.Options{Workers: workers, ChunkBytes: 8 << 10})
			check(fmt.Sprintf("file %dw", workers), s, st, err)
		}
		// The streaming path keeps no distinct-type bookkeeping.
		s, st, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), jsi.Options{})
		st.DistinctTypes = refStats.DistinctTypes
		check("streaming", s, st, err)
	}
}
