package intern_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/enrich/monoidtest"
	"repro/internal/intern"
	"repro/internal/types"
)

// --- random type generator (xorshift, like the other property tests) ---

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) key() string {
	keys := []string{"a", "b", "c", "id", "name", "x-y", "with space", "ε", ""}
	return keys[r.intn(len(keys))]
}

// randomType builds a bounded random type covering every node kind the
// table interns — the kinds the decoder produces: basic types, records,
// tuples and keyed, wrapper and collapsed variants.
func randomType(r *rng, depth int) types.Type {
	max := 8
	if depth <= 0 {
		max = 4
	}
	switch r.intn(max) {
	case 0:
		return types.Null
	case 1:
		return types.Bool
	case 2:
		return types.Num
	case 3:
		return types.Str
	case 4:
		return randomRecord(r, depth)
	case 5:
		n := r.intn(3)
		es := make([]types.Type, n)
		for i := range es {
			es[i] = randomType(r, depth-1)
		}
		return types.MustTuple(es...)
	case 6:
		var other *types.Record
		if r.intn(2) == 0 {
			other = randomRecord(r, depth)
		}
		tag := []string{"push", "fork"}[r.intn(2)]
		if r.intn(2) == 0 {
			return types.MustVariants("type", false, []types.Variant{{Tag: tag, Type: randomRecord(r, depth)}}, other)
		}
		return types.MustVariants("", true, []types.Variant{{Tag: tag, Type: randomRecord(r, depth)}}, other)
	default:
		return types.MustCollapsedVariants(randomRecord(r, depth))
	}
}

func randomRecord(r *rng, depth int) *types.Record {
	n := r.intn(4)
	var fs []types.Field
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		k := r.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		fs = append(fs, types.Field{Key: k, Type: randomType(r, depth-1), Optional: r.intn(2) == 0})
	}
	return types.MustRecord(fs...)
}

// canon interns t bottom-up the way the decoder builds types: every
// child first, then the node over its canonical children.
func canon(tab *intern.Table, t types.Type) types.Type {
	switch tt := t.(type) {
	case *types.Record:
		fs := make([]types.Field, tt.Len())
		for i, f := range tt.Fields() {
			fs[i] = types.Field{Key: f.Key, Type: canon(tab, f.Type), Optional: f.Optional}
		}
		return tab.InternRecord(fs)
	case *types.Tuple:
		es := make([]types.Type, tt.Len())
		for i, e := range tt.Elems() {
			es[i] = canon(tab, e)
		}
		return tab.InternTuple(es)
	case *types.Variants:
		var other *types.Record
		if tt.Other() != nil {
			other = canon(tab, tt.Other()).(*types.Record)
		}
		if tt.Collapsed() {
			return tab.Canon(types.MustCollapsedVariants(other))
		}
		cs := make([]types.Variant, tt.Len())
		for i, c := range tt.Cases() {
			cs[i] = types.Variant{Tag: c.Tag, Type: canon(tab, c.Type).(*types.Record)}
		}
		return tab.Canon(types.MustVariants(tt.Key(), tt.Wrapper(), cs, other))
	default:
		return tab.Canon(t)
	}
}

// TestCanonAgreesWithEqual is the core hash-consing property: two types
// canonicalize to the same representative (same node, same ID) exactly
// when they are structurally equal, and the representative is itself
// structurally equal to the input.
func TestCanonAgreesWithEqual(t *testing.T) {
	tab := intern.NewTable()
	f := func(seed1, seed2 uint64) bool {
		a := randomType(&rng{s: seed1 | 1}, 3)
		b := randomType(&rng{s: seed2 | 1}, 3)
		ca, cb := canon(tab, a), canon(tab, b)
		if !types.Equal(a, ca) || !types.Equal(b, cb) {
			return false
		}
		ra, ok1 := tab.Ref(ca)
		rb, ok2 := tab.Ref(cb)
		if !ok1 || !ok2 {
			return false
		}
		if (ra.ID == rb.ID) != types.Equal(a, b) {
			return false
		}
		if (ca == cb) != types.Equal(a, b) {
			return false
		}
		// The cached size matches the type's own accounting (Section 4's
		// size measure), so multiset stats can use it directly.
		return ra.Size == ca.Size() && rb.Size == cb.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestCanonIdempotent: canonicalizing a representative is the identity,
// and costs a hit, not a new entry.
func TestCanonIdempotent(t *testing.T) {
	tab := intern.NewTable()
	r := &rng{s: 42}
	for i := 0; i < 200; i++ {
		c := canon(tab, randomType(r, 3))
		n := tab.Len()
		if again := tab.Canon(c); again != c {
			t.Fatalf("Canon(Canon(t)) returned a different node for %s", c)
		}
		if tab.Len() != n {
			t.Fatalf("re-canonicalizing grew the table")
		}
	}
}

// TestRefOnlyKnowsRepresentatives: Ref answers by node identity, so a
// fresh structurally-equal node is not a representative until Canon
// resolves it.
func TestRefOnlyKnowsRepresentatives(t *testing.T) {
	tab := intern.NewTable()
	fresh := types.MustRecord(types.Field{Key: "a", Type: types.Num})
	if _, ok := tab.Ref(fresh); ok {
		t.Fatal("Ref claimed a never-interned node")
	}
	c := tab.Canon(fresh)
	if _, ok := tab.Ref(c); !ok {
		t.Fatal("Ref missed the canonical representative")
	}
	clone := types.MustRecord(types.Field{Key: "a", Type: types.Num})
	if _, ok := tab.Ref(clone); ok {
		t.Fatal("Ref claimed a non-representative clone")
	}
	if tab.Canon(clone) != c {
		t.Fatal("structurally equal clone did not collapse onto the representative")
	}
}

// TestCanonIsShallow: Canon interns one node over canonical children
// and refuses anything else — a child that is not a representative, or
// a kind the decoder never produces.
func TestCanonIsShallow(t *testing.T) {
	tab := intern.NewTable()
	inner := types.MustRecord(types.Field{Key: "a", Type: types.Num})
	for _, typ := range []types.Type{
		types.MustRecord(types.Field{Key: "r", Type: inner}),
		types.MustTuple(inner),
		types.MustRepeated(types.Num),
		types.MustMap(types.Num),
		types.MustUnion(types.Num, types.Str),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Canon(%s) did not panic", typ)
				}
			}()
			tab.Canon(typ)
		}()
	}
}

// TestDeterministicCounters: on a single-threaded run, misses count
// exactly the distinct types inserted after seeding (Len minus the six
// pre-seeded leaves), which is what makes intern_misses an exact
// distinct-shape metric at Workers: 1.
func TestDeterministicCounters(t *testing.T) {
	tab := intern.NewTable()
	seeded := tab.Len()
	r := &rng{s: 7}
	for i := 0; i < 300; i++ {
		canon(tab, randomType(r, 3))
	}
	_, misses := tab.Stats()
	if want := int64(tab.Len() - seeded); misses != want {
		t.Fatalf("misses = %d, want Len-seeded = %d", misses, want)
	}
}

// TestConcurrentIntern hammers one table from many goroutines with
// overlapping type sets; exactly one representative must win per
// equivalence class regardless of interleaving (run under -race).
func TestConcurrentIntern(t *testing.T) {
	tab := intern.NewTable()
	const workers = 8
	reps := make([][]types.Type, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Same seed stride across workers → heavy overlap.
			r := &rng{s: uint64(1 + w%2)}
			for i := 0; i < 200; i++ {
				reps[w] = append(reps[w], canon(tab, randomType(r, 3)))
			}
		}()
	}
	wg.Wait()
	// Workers with the same seed produced the same sequence of inputs;
	// their representatives must be identical nodes.
	for i := range reps[0] {
		if reps[0][i] != reps[2][i] {
			t.Fatalf("representative %d differs across goroutines", i)
		}
	}
	hits, misses := tab.Stats()
	if int(hits+misses) == 0 || misses < int64(tab.Len()-6) {
		t.Fatalf("implausible counters: hits=%d misses=%d len=%d", hits, misses, tab.Len())
	}
}

func mustRef(t *testing.T, tab *intern.Table, typ types.Type) intern.Ref {
	t.Helper()
	r, ok := tab.Ref(canon(tab, typ))
	if !ok {
		t.Fatalf("no ref for %s", typ)
	}
	return r
}

func TestMultiset(t *testing.T) {
	tab := intern.NewTable()
	num := mustRef(t, tab, types.Num)
	str := mustRef(t, tab, types.Str)
	rec := mustRef(t, tab, types.MustRecord(types.Field{Key: "a", Type: types.Num}))

	a := intern.NewMultiset()
	a.Add(num, 3)
	a.Add(str, 1)
	a.Add(num, 2)
	if a.Len() != 2 || a.Total() != 6 {
		t.Fatalf("Len=%d Total=%d, want 2 and 6", a.Len(), a.Total())
	}
	if got := a.Elems(); got[0].ID != num.ID || got[0].Count != 5 || got[1].ID != str.ID {
		t.Fatalf("first-seen order violated: %+v", got)
	}

	b := intern.NewMultiset()
	b.Add(rec, 4)
	b.Add(num, 1)
	a.Merge(b)
	if a.Len() != 3 || a.Total() != 11 {
		t.Fatalf("after merge Len=%d Total=%d, want 3 and 11", a.Len(), a.Total())
	}
	// Merge appends b's new types in b's order and must not modify b.
	if got := a.Elems(); got[2].ID != rec.ID || got[0].Count != 6 {
		t.Fatalf("merge order/counts wrong: %+v", got)
	}
	if b.Len() != 2 || b.Total() != 5 {
		t.Fatalf("Merge modified its argument: %+v", b.Elems())
	}
	a.Merge(nil) // no-op
	if a.Total() != 11 {
		t.Fatal("Merge(nil) changed the multiset")
	}
}

// TestMultisetMergeConformance: the count multiset is a commutative
// monoid — counts after merging are independent of merge grouping and
// order, the property the combiner relies on. The shared harness
// checks identity, commutativity, associativity, random merge trees
// and non-mutation of the second operand over a shared intern table,
// exactly the within-run sharing the dedup pipeline has.
func TestMultisetMergeConformance(t *testing.T) {
	tab := intern.NewTable()
	monoidtest.Run(t, monoidtest.Subject{
		Name:  "multiset",
		Empty: func() any { return intern.NewMultiset() },
		Rand: func(r *rand.Rand) any {
			// Seed the local xorshift generator from the harness rng, so
			// the element stays a pure function of the reads from r.
			gen := &rng{s: uint64(r.Int63()) | 1}
			ms := intern.NewMultiset()
			for i, n := 0, gen.intn(20); i < n; i++ {
				ms.Add(mustRef(t, tab, randomType(gen, 2)), int64(1+gen.intn(5)))
			}
			return ms
		},
		Merge: func(a, b any) any {
			ms := a.(*intern.Multiset)
			ms.Merge(b.(*intern.Multiset))
			return ms
		},
		Fingerprint: func(x any) string {
			ms := x.(*intern.Multiset)
			elems := ms.Elems()
			counts := make(map[intern.ID]int64, len(elems))
			ids := make([]int, 0, len(elems))
			for _, e := range elems {
				counts[e.ID] = e.Count
				ids = append(ids, int(e.ID))
			}
			sort.Ints(ids)
			var sb strings.Builder
			fmt.Fprintf(&sb, "len=%d total=%d", ms.Len(), ms.Total())
			for _, id := range ids {
				fmt.Fprintf(&sb, " %d:%d", id, counts[intern.ID(id)])
			}
			return sb.String()
		},
	})
}
