package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestReportShape(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_obs.json")
	if err := os.WriteFile(base, []byte(`{"nil_recorder_ns_per_op": 123456}`), 0o600); err != nil {
		t.Fatal(err)
	}
	prev := filepath.Join(dir, "BENCH_perf.json")
	prevRep := `{"datasets":[{"dataset":"twitter","default":{"ns_per_op":1000000}}]}`
	if err := os.WriteFile(prev, []byte(prevRep), 0o600); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	// Tiny dataset: the point is the report shape, not the numbers.
	if err := run([]string{"-records", "50", "-baseline", base, "-prev", prev}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if len(rep.Datasets) != 4 {
		t.Fatalf("expected 4 datasets, got %d", len(rep.Datasets))
	}
	for _, d := range rep.Datasets {
		if d.Default.NsPerOp <= 0 || d.Enriched.NsPerOp <= 0 || d.Tagged.NsPerOp <= 0 {
			t.Errorf("%s: ns/op not measured: %+v", d.Dataset, d)
		}
		if d.Default.AllocsPerOp <= 0 || d.Enriched.AllocsPerOp <= 0 || d.Tagged.AllocsPerOp <= 0 {
			t.Errorf("%s: allocs/op not measured: %+v", d.Dataset, d)
		}
		if d.DistinctTypes <= 0 {
			t.Errorf("%s: distinct types not reported", d.Dataset)
		}
		if d.Records != 50 {
			t.Errorf("%s: Records = %d", d.Dataset, d.Records)
		}
	}
	if rep.BaselineNsPerOp != 123456 {
		t.Errorf("baseline not read: %d", rep.BaselineNsPerOp)
	}
	if rep.HeadlineNsImprovementPct == nil {
		t.Error("baseline provided but headline_ns_improvement_pct missing")
	}
	if rep.HeadlineTaggedOverheadPct == 0 {
		t.Error("headline_tagged_overhead_pct missing")
	}
	if rep.PrevDedupNsPerOp != 1000000 {
		t.Errorf("prev_dedup_ns_per_op = %d, want 1000000", rep.PrevDedupNsPerOp)
	}
	if rep.PipelineOverheadPct == nil {
		t.Error("prev report provided but pipeline_overhead_pct missing")
	}
}

func TestPrevDedupNsPerOp(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"datasets":[{"dataset":"github","default":{"ns_per_op":7}},{"dataset":"twitter","default":{"ns_per_op":42}}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`not json`), 0o600); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		path string
		want int64
	}{
		{good, 42},
		{bad, 0},
		{filepath.Join(dir, "missing.json"), 0},
		{"", 0},
	}
	for _, c := range cases {
		if got := prevDedupNsPerOp(c.path); got != c.want {
			t.Errorf("prevDedupNsPerOp(%q) = %d, want %d", c.path, got, c.want)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-nope"}, &out, &errBuf); err == nil {
		t.Error("bad flag accepted")
	}
}
