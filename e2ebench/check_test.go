package main

import (
	"bytes"
	"strings"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/types"
)

func codec(t *testing.T, data []byte, opts jsi.Options) []byte {
	t.Helper()
	s, _, err := jsi.InferNDJSON(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSameSchemaCatchesPlantedOneFieldDifference(t *testing.T) {
	g, err := dataset.New("twitter")
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.NDJSON(g, 200, 3)
	want := codec(t, data, jsi.Options{})
	if err := sameSchema(append(append([]byte(nil), want...), '\n'), want); err != nil {
		t.Fatalf("identical schemas reported different: %v", err)
	}

	// Plant one extra field in one record: the schema gains one
	// optional field and nothing else.
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[7] = bytes.Replace(lines[7], []byte("{"), []byte(`{"planted_field":1,`), 1)
	got := codec(t, bytes.Join(lines, nil), jsi.Options{})
	err = sameSchema(got, want)
	if err == nil {
		t.Fatal("a one-field schema difference passed the check")
	}
	if !strings.Contains(err.Error(), "planted") {
		t.Errorf("error does not point at the difference: %v", err)
	}
}

// The layer replay is the reference the CLI is checked against, so it
// must agree with the library on every workload's shape of data.
func TestLayerReplayMatchesLibrary(t *testing.T) {
	for _, tc := range []struct {
		dataset string
		tagged  bool
	}{
		{"twitter", false}, {"wikidata", false}, {"github", false}, {"eventlog", true}, {"webhook", true},
	} {
		g, err := dataset.New(tc.dataset)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 300, 5)
		spec := tenantSpec{dataset: tc.dataset, tagged: tc.tagged}
		for _, tr := range []*Tracer{nil, NewTracer()} {
			r := newLayerReplay(spec.fusion(), tr)
			if err := r.feed(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			got, err := types.MarshalJSON(r.result())
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSchema(got, codec(t, data, spec.options())); err != nil {
				t.Errorf("%s (tagged=%v, traced=%v): %v", tc.dataset, tc.tagged, tr != nil, err)
			}
			if r.records != 300 {
				t.Errorf("%s: replay typed %d records, want 300", tc.dataset, r.records)
			}
		}
	}
}
