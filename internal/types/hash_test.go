package types

import "testing"

// randomHashType extends randomType with every node kind Hash covers —
// maps, the three variants states and ε — at every level.
func randomHashType(r *typeRand, depth int) Type {
	if depth <= 0 {
		return randomType(r, 0)
	}
	switch r.intn(9) {
	case 0:
		return MustMap(randomHashType(r, depth-1))
	case 1:
		return randomVariants(r, depth-1)
	case 2:
		return rep(Empty)
	case 3:
		n := r.intn(4)
		var fs []Field
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			k := r.key()
			if !seen[k] {
				seen[k] = true
				fs = append(fs, Field{Key: k, Type: randomHashType(r, depth-1), Optional: r.intn(2) == 0})
			}
		}
		return rec(fs...)
	case 4:
		es := make([]Type, r.intn(3))
		for i := range es {
			es[i] = randomHashType(r, depth-1)
		}
		return tup(es...)
	case 5:
		return uni(randomHashType(r, depth-1), randomHashType(r, depth-1))
	default:
		return randomType(r, depth)
	}
}

// randomVariants builds a keyed, wrapper or collapsed variants type.
func randomVariants(r *typeRand, depth int) *Variants {
	record := func() *Record {
		if rt, ok := randomHashType(r, depth).(*Record); ok {
			return rt
		}
		return rec(fld(r.key(), randomHashType(r, depth)))
	}
	if r.intn(4) == 0 {
		return MustCollapsedVariants(record())
	}
	var cases []Variant
	seen := map[string]bool{}
	for i := 0; i <= r.intn(3); i++ {
		if tag := r.key(); !seen[tag] {
			seen[tag] = true
			cases = append(cases, Variant{Tag: tag, Type: record()})
		}
	}
	var other *Record
	if r.intn(2) == 0 {
		other = record()
	}
	if r.intn(2) == 0 {
		return MustVariants("", true, cases, other)
	}
	return MustVariants("type", false, cases, other)
}

// hashUp recomputes Hash bottom-up through the exported helpers for the
// kinds a decoder builds (basic types, records, tuples, single-case
// variants); other kinds have no helper and defer to Hash.
func hashUp(t Type) uint64 {
	switch tt := t.(type) {
	case Basic:
		return HashBasic(tt)
	case *Record:
		hs := make([]uint64, tt.Len())
		for i, f := range tt.Fields() {
			hs[i] = hashUp(f.Type)
		}
		return HashRecord(tt.Fields(), hs)
	case *Tuple:
		hs := make([]uint64, tt.Len())
		for i, e := range tt.Elems() {
			hs[i] = hashUp(e)
		}
		return HashTuple(hs)
	case *Variants:
		if !tt.Collapsed() && tt.Len() == 1 && tt.Other() == nil {
			c := tt.Cases()[0]
			return HashCase(tt.Key(), tt.Wrapper(), c.Tag, hashUp(c.Type))
		}
	}
	return Hash(t)
}

// TestHashLaws pins the hash laws over random types of every kind:
// equal types hash equally — a codec round trip rebuilds every node, and
// shallow random pairs are often equal by construction — and the
// exported bottom-up helpers reproduce Hash.
func TestHashLaws(t *testing.T) {
	r := &typeRand{s: 99}
	equalPairs := 0
	for i := 0; i < 2000; i++ {
		a := randomHashType(r, 3)
		data, err := MarshalJSON(a)
		if err != nil {
			t.Fatal(err)
		}
		b, err := UnmarshalJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !Equal(a, b) || Hash(a) != Hash(b) {
			t.Fatalf("codec copy of %s: Equal %v, hashes %#x and %#x", a, Equal(a, b), Hash(a), Hash(b))
		}
		if got := hashUp(a); got != Hash(a) {
			t.Fatalf("bottom-up hash of %s = %#x, Hash = %#x", a, got, Hash(a))
		}
		c, d := randomHashType(r, 1), randomHashType(r, 1)
		if Equal(c, d) {
			equalPairs++
			if Hash(c) != Hash(d) {
				t.Fatalf("equal types %s hash to %#x and %#x", c, Hash(c), Hash(d))
			}
		}
	}
	t.Logf("%d equal shallow pairs", equalPairs)
	if equalPairs < 20 {
		t.Fatalf("only %d equal shallow pairs; the generator no longer exercises the law", equalPairs)
	}
}
