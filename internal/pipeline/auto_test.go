package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/enrich"
	"repro/internal/fusion"
)

// autoTestDedup builds adaptive dedup machinery with tight knobs so
// tiny test chunks exercise real sampling decisions: an 8-record
// sample, a 0.5 degrade ratio, and a node-growth guard low enough that
// any all-distinct window passes it.
func autoTestDedup() *Dedup {
	return autoTestEnv(fusion.Options{}, nil).Dedup
}

// autoTestEnv is an adaptive Env under the given fusion policy and
// enrichment selection, with the knobs of autoTestDedup: one chunk of
// a handful of records mixes interned and degraded records.
func autoTestEnv(fz fusion.Options, enr *enrich.Set) *Env {
	env := dedupTestEnv(fz, enr)
	env.Dedup.sample = 8
	env.Dedup.threshold = 0.5
	env.Dedup.nodeGrowth = 0.01
	return env
}

// ndjsonFields builds one NDJSON chunk with a record per field name:
// distinct names produce distinct record types, repeats repeat them.
func ndjsonFields(names ...string) []byte {
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "{%q:1}\n", n)
	}
	return []byte(b.String())
}

// repeatFields returns n copies of the given names in round-robin
// order, so the distinct ratio of a window is len(names)/n.
func roundRobin(n int, names ...string) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, names[i%len(names)])
	}
	return out
}

// TestAutoThresholdBoundary pins the degrade predicate's boundary
// semantics: a sampled window whose distinct ratio lands exactly on
// the threshold degrades (the predicate is >=), one distinct type
// fewer stays on the dedup path — and either way the folded Result is
// byte-identical to the all-interned and all-degraded regimes over the
// same chunk.
func TestAutoThresholdBoundary(t *testing.T) {
	cases := []struct {
		label   string
		sampled []string // first 8 records: the sampled window
		want    int32
	}{
		// 4 distinct over 8 sampled records = ratio 0.5, exactly the
		// threshold: 4 >= 0.5*8 holds, so the chunk degrades.
		{"at threshold degrades", roundRobin(8, "a", "b", "c", "d"), hintDegrade},
		// 3 distinct = ratio 0.375 < 0.5: stays deduplicating.
		{"below threshold stays", roundRobin(8, "a", "b", "c"), hintDedup},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			// Four post-sample records so a degrade leaves a real plain
			// portion behind it.
			records := append(append([]string{}, tc.sampled...), "e", "f", "g", "h")
			chunk := ndjsonFields(records...)

			env := &Env{Fusion: fusion.Options{}, Dedup: autoTestDedup()}
			acc, err := env.mapChunk(chunk)
			if err != nil {
				t.Fatal(err)
			}
			if got := env.Dedup.hint.Load(); got != tc.want {
				t.Fatalf("hint after sampled chunk = %d, want %d", got, tc.want)
			}

			got := Fold(acc)
			for _, fixed := range []struct {
				label string
				env   *Env
			}{
				{"dedup", dedupTestEnv(fusion.Options{}, nil)},
				{"plain", plainTestEnv(fusion.Options{}, nil)},
			} {
				facc, err := fixed.env.mapChunk(chunk)
				if err != nil {
					t.Fatal(err)
				}
				want := Fold(facc)
				if got.Fused.String() != want.Fused.String() {
					t.Errorf("fused vs %s: %s != %s", fixed.label, got.Fused, want.Fused)
				}
				if got.Records != want.Records || got.DistinctTypes != want.DistinctTypes {
					t.Errorf("stats vs %s: records %d/%d distinct %d/%d",
						fixed.label, got.Records, want.Records, got.DistinctTypes, want.DistinctTypes)
				}
				if got.MinTypeSize != want.MinTypeSize || got.MaxTypeSize != want.MaxTypeSize || got.AvgTypeSize != want.AvgTypeSize {
					t.Errorf("sizes vs %s: min %d/%d max %d/%d avg %v/%v", fixed.label,
						got.MinTypeSize, want.MinTypeSize, got.MaxTypeSize, want.MaxTypeSize,
						got.AvgTypeSize, want.AvgTypeSize)
				}
			}
		})
	}
}

// TestAutoCombineBoundaryRecheck exercises the other half of the
// adaptive layer: chunks too small to complete a sample individually
// still trigger the decision when their accumulators merge past the
// sample size — and a degraded run whose plain portion turns
// repetitive is sent back to sampling.
func TestAutoCombineBoundaryRecheck(t *testing.T) {
	t.Run("merge crosses sample size", func(t *testing.T) {
		dd := autoTestDedup()
		env := &Env{Fusion: fusion.Options{}, Dedup: dd}
		// Two 4-record chunks, all-distinct across both: neither chunk
		// completes the 8-record sample alone.
		a, err := env.mapChunk(ndjsonFields("a", "b", "c", "d"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := env.mapChunk(ndjsonFields("e", "f", "g", "h"))
		if err != nil {
			t.Fatal(err)
		}
		if got := dd.hint.Load(); got != hintSample {
			t.Fatalf("hint before merge = %d, want %d (still sampling)", got, hintSample)
		}
		// The combine-boundary re-check reuses node-growth evidence from
		// sampling; seed it as a completed all-fresh window would have.
		dd.noteSample(8, 40)
		Combine(a, b)
		if got := dd.hint.Load(); got != hintDegrade {
			t.Fatalf("hint after all-distinct merge = %d, want %d", got, hintDegrade)
		}
	})

	t.Run("repetitive merge settles on dedup", func(t *testing.T) {
		dd := autoTestDedup()
		env := &Env{Fusion: fusion.Options{}, Dedup: dd}
		a, err := env.mapChunk(ndjsonFields(roundRobin(4, "a", "b")...))
		if err != nil {
			t.Fatal(err)
		}
		b, err := env.mapChunk(ndjsonFields(roundRobin(4, "a", "b")...))
		if err != nil {
			t.Fatal(err)
		}
		Combine(a, b)
		if got := dd.hint.Load(); got != hintDedup {
			t.Fatalf("hint after repetitive merge = %d, want %d", got, hintDedup)
		}
	})

	t.Run("repetitive degraded portion resumes sampling", func(t *testing.T) {
		dd := autoTestDedup()
		dd.hint.Store(hintDegrade) // a settled degrade sends whole chunks down the plain path
		env := &Env{Fusion: fusion.Options{}, Dedup: dd}
		a, err := env.mapChunk(ndjsonFields(roundRobin(4, "a", "b")...))
		if err != nil {
			t.Fatal(err)
		}
		b, err := env.mapChunk(ndjsonFields(roundRobin(4, "a", "b")...))
		if err != nil {
			t.Fatal(err)
		}
		Combine(a, b)
		if got := dd.hint.Load(); got != hintSample {
			t.Fatalf("hint after repetitive degraded merge = %d, want %d (resume sampling)", got, hintSample)
		}
	})
}

// TestAutoStreamDegrade pins that the streaming driver stays plain:
// over input whose chunked run degrades mid-chunk, RunStream with the
// same Env never touches the intern table and folds to the same
// schema and size statistics (DistinctTypes stays zero on the stream).
func TestAutoStreamDegrade(t *testing.T) {
	// 8 all-distinct sampled records force a degrade, then 12 more
	// records (4 fresh shapes, with repeats) run down the plain path.
	records := append(
		[]string{"a", "b", "c", "d", "e", "f", "g", "h"},
		roundRobin(12, "w", "x", "y", "z")...)
	data := ndjsonFields(records...)

	env := autoTestEnv(fusion.Options{}, nil)
	tab0 := env.Dedup.Tab.Len()
	acc, n, err := RunStream(context.Background(), env, strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("consumed %d bytes, want %d", n, len(data))
	}
	if got := env.Dedup.Tab.Len(); got != tab0 {
		t.Fatalf("streaming run interned %d nodes, want none", got-tab0)
	}
	got := Fold(acc)
	if got.Records != int64(len(records)) || got.DistinctTypes != 0 {
		t.Fatalf("records = %d, distinct = %d; want %d, 0", got.Records, got.DistinctTypes, len(records))
	}

	cacc, err := env.mapChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	if h := env.Dedup.hint.Load(); h != hintDegrade {
		t.Fatalf("hint after all-distinct sample = %d, want %d", h, hintDegrade)
	}
	want := Fold(cacc)
	if got.Fused.String() != want.Fused.String() {
		t.Errorf("fused: %s != %s", got.Fused, want.Fused)
	}
	if got.MinTypeSize != want.MinTypeSize || got.MaxTypeSize != want.MaxTypeSize || got.AvgTypeSize != want.AvgTypeSize {
		t.Errorf("sizes: min %d/%d max %d/%d avg %v/%v",
			got.MinTypeSize, want.MinTypeSize, got.MaxTypeSize, want.MaxTypeSize,
			got.AvgTypeSize, want.AvgTypeSize)
	}
}
