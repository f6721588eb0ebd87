package fusion

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/types"
)

// cowOptions are the non-tagged policies the copy-on-write contract is
// pinned under.
var cowOptions = []Options{
	{},
	{Strategy: Tuples{}},
	{Strategy: Tuples{MaxLen: 2}},
}

// TestCopyOnWriteLaws pins idempotency and absorption on simplified
// types as pointer identities — the algebraic facts the interned fold
// leans on: re-fusing a type the accumulator already covers returns the
// accumulator itself. For simplified s and A under every non-tagged
// policy: Fuse(s, s) == s, Simplify(s) == s and
// Fuse(Fuse(A, s), s) == Fuse(A, s).
func TestCopyOnWriteLaws(t *testing.T) {
	for _, o := range cowOptions {
		r := &rng{s: 23}
		for i := 0; i < 2000; i++ {
			s := o.Simplify(randomNormalType(r))
			if got := o.Fuse(s, s); got != s {
				t.Fatalf("opts %+v: Fuse(s, s) = %s is not s = %s", o, got, s)
			}
			if got := o.Simplify(s); got != s {
				t.Fatalf("opts %+v: Simplify(s) = %s is not s = %s", o, got, s)
			}
			acc := o.Fuse(o.Simplify(randomNormalType(r)), s)
			if got := o.Fuse(acc, s); got != acc {
				t.Fatalf("opts %+v: Fuse(Fuse(A, s), s) = %s is not Fuse(A, s) = %s", o, got, acc)
			}
		}
	}
}

// TestCoveredFuseAllocatesNothing: on the paper's datasets, and under
// the tagged strategy on the discriminated ones, fusing a record's
// simplified type into an accumulator that already covers it returns
// the accumulator without allocating — the steady state of the
// interned fold.
func TestCoveredFuseAllocatesNothing(t *testing.T) {
	type run struct {
		name string
		o    Options
	}
	var runs []run
	for _, name := range dataset.PaperNames() {
		runs = append(runs, run{name, Options{Strategy: Paper{}}})
	}
	for _, name := range []string{"eventlog", "webhook", "github"} {
		runs = append(runs, run{name, Options{Strategy: Tagged{}}})
	}
	for _, rn := range runs {
		g, err := dataset.New(rn.name)
		if err != nil {
			t.Fatal(err)
		}
		var pr infer.Promoter
		if p := rn.o.Promoter(); p != nil {
			pr = p
		}
		ts, err := infer.InferAllWith(dataset.NDJSON(g, 100, 1), nil, pr)
		if err != nil {
			t.Fatal(err)
		}
		acc := types.Type(types.Empty)
		for i, typ := range ts {
			ts[i] = rn.o.Simplify(typ)
			acc = rn.o.Fuse(acc, ts[i])
		}
		for i, s := range ts {
			var got types.Type
			allocs := testing.AllocsPerRun(5, func() { got = rn.o.Fuse(acc, s) })
			if got != acc {
				t.Fatalf("%s %s record %d: Fuse(acc, s) did not return acc", rn.name, rn.o.Strategy.Name(), i)
			}
			if allocs != 0 {
				t.Fatalf("%s %s record %d: Fuse(acc, s) allocated %.0f times", rn.name, rn.o.Strategy.Name(), i, allocs)
			}
		}
	}
}

// TestFuseConcurrentSharedOperands races many goroutines through fuses
// of shared operands (run under -race): copy-on-write results alias
// their inputs, so fusion must never write to a node it was given.
func TestFuseConcurrentSharedOperands(t *testing.T) {
	base := &rng{s: 77}
	ts := make([]types.Type, 24)
	for i := range ts {
		ts[i] = infer.Infer(randomValue(base, 3))
	}
	want := make([]string, len(ts))
	for i := range ts {
		want[i] = Fuse(ts[i], ts[(i+1)%len(ts)]).String()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ts {
				if got := Fuse(ts[i], ts[(i+1)%len(ts)]).String(); got != want[i] {
					t.Errorf("concurrent fuse %d: got %s want %s", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
