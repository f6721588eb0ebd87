package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimesSyntheticTree(t *testing.T) {
	// root [0,100] ⊃ a [10,40] ⊃ a1 [15,25]; root ⊃ b [50,70]; a
	// second root c [100,130] with the same name as b.
	spans := []Span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "a1", Start: 15, End: 25, Allocs: 7},
		{ID: 3, Parent: 0, Name: "b", Start: 50, End: 70, Allocs: -1},
		{ID: 4, Parent: -1, Name: "b", Start: 100, End: 130, Allocs: 5},
	}
	got := SelfTimes(spans)
	want := map[string]LayerTotals{
		"root": {Self: 50},
		"a":    {Self: 20},
		"a1":   {Self: 10, Allocs: 7},
		"b":    {Self: 50, Allocs: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
	// Self times partition the roots' wall time.
	var sum time.Duration
	for _, lt := range got {
		sum += lt.Self
	}
	if sum != 130 {
		t.Errorf("self times sum to %v, want the roots' 130ns", sum)
	}
}

func TestTracerNestsAndCountsAllocs(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("root")
	child := tr.BeginAllocs("child")
	sink := make([][]byte, 0, 100)
	for i := 0; i < 100; i++ {
		sink = append(sink, make([]byte, 64+i))
	}
	tr.End(child)
	tr.End(root)
	after := tr.Begin("after")
	tr.End(after)
	_ = sink

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[child].Parent != root || spans[root].Parent != -1 || spans[after].Parent != -1 {
		t.Errorf("parents: %+v", spans)
	}
	if a := spans[child].Allocs; a < 100 {
		t.Errorf("child counted %d allocations, want at least 100", a)
	}
	if spans[root].Allocs != -1 {
		t.Errorf("root counted allocations without asking")
	}
	if spans[child].Start < spans[root].Start || spans[child].End > spans[root].End {
		t.Errorf("child %+v not inside root %+v", spans[child], spans[root])
	}
	if err := tr.WriteFile(filepath.Join(t.TempDir(), "trace.jsonl")); err != nil {
		t.Fatal(err)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x")
	tr.End(id)
	if id != -1 || tr.Spans() != nil {
		t.Errorf("nil tracer recorded span %d", id)
	}
}
