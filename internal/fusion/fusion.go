// Package fusion implements the second phase of the paper's approach
// (Section 5.2): the binary type-fusion operator of Figures 5 and 6 and
// its n-ary folds. Fuse computes a compact supertype of its two inputs
// by collapsing structure they share:
//
//   - identical basic types collapse, different kinds meet in a union;
//   - record types merge field-wise: matching keys fuse recursively and
//     keep the smaller cardinality (? < 1), unmatched keys become
//     optional (rules R1 and R2 of Section 2);
//   - array types are first simplified — collapse replaces a positional
//     tuple type by the fusion of its element types — and then fused
//     element-wise into a repeated type [T*].
//
// Fuse is correct (Theorem 5.2: both inputs are subtypes of the result),
// commutative (Theorem 5.4) and associative (Theorem 5.5) on normal
// types, which is what lets the reduce phase apply it in any order and in
// parallel. The package's property tests check all three theorems.
//
// The package-level functions implement the paper's algorithm exactly;
// Options provides the positional-array extension sketched in the
// paper's conclusion (see options.go).
package fusion

import (
	"fmt"

	"repro/internal/types"
)

// Fuse merges two types of arbitrary shape, the function Fuse(T1, T2) of
// Figure 6 (line 1). Union addends of matching kind are fused pairwise
// with LFuse (the paper's KMatch set), addends whose kind appears on only
// one side are copied unchanged (KUnmatch), and the results are rebuilt
// into a union with ⊕.
//
// Inputs are expected to be normal types (each kind at most once per
// union, the invariant all our algorithms maintain); if a non-normal
// union slips in, same-kind addends are folded together first, which
// keeps Fuse total and still yields a supertype.
func Fuse(t1, t2 types.Type) types.Type { return policy{}.fuse(t1, t2) }

// LFuse fuses two non-union types of the same kind (Figure 6, lines 2-7).
// Calling it with types of different kinds is a programming error.
func LFuse(t1, t2 types.Type) types.Type { return policy{}.lfuse(t1, t2) }

// Collapse implements lines 8-9 of Figure 6: the simplification that
// prepares a positional array type for fusion by over-approximating all
// element types with their fusion. The empty tuple collapses to ε, so
// the simplified form of [] is [ε*], which denotes exactly the empty
// array (footnote 1 of the paper).
func Collapse(t *types.Tuple) types.Type { return policy{}.collapse(t.Elems()) }

// Simplify rewrites every tuple array type inside t into its simplified
// repeated form [collapse(...)​*]. Phase one of the paper infers tuple
// types; fusing a type with itself would simplify it too, but Simplify
// does it directly and is what the pipeline applies when a partition
// contains a single value.
func Simplify(t types.Type) types.Type { return policy{}.simplify(t) }

// FuseAll folds Fuse over ts from the left, returning ε for an empty
// slice. By Theorems 5.4 and 5.5 any other fold shape yields the same
// result; the map-reduce engine exploits exactly this freedom.
func FuseAll(ts []types.Type) types.Type {
	acc := types.Type(types.Empty)
	for _, t := range ts {
		acc = Fuse(acc, t)
	}
	return acc
}

// FuseAllTree folds Fuse over ts as a balanced binary tree, the shape a
// parallel reduction produces. It returns ε for an empty slice. Beyond
// parallelism, the tree shape is also asymptotically cheaper on
// fusion-hostile data (see the reduce-shape ablation): a sequential fold
// fuses every small type into one ever-growing accumulator.
func FuseAllTree(ts []types.Type) types.Type {
	switch len(ts) {
	case 0:
		return types.Empty
	case 1:
		return ts[0]
	default:
		mid := len(ts) / 2
		return Fuse(FuseAllTree(ts[:mid]), FuseAllTree(ts[mid:]))
	}
}

// fuse implements Fuse under a policy. It is copy-on-write: when one
// operand already covers the other, that operand itself is returned,
// pointer-equal, so the steady state of a fold over repetitive data
// allocates nothing. Types are immutable (the typemut analyzer enforces
// it), which is what makes sharing the operand safe.
func (p policy) fuse(t1, t2 types.Type) types.Type {
	_, u1 := t1.(*types.Union)
	_, u2 := t2.(*types.Union)
	if !u1 && !u2 {
		k1, ok1 := types.KindOf(t1)
		k2, ok2 := types.KindOf(t2)
		switch {
		case !ok1: // ε is the identity.
			return t2
		case !ok2:
			return t1
		case k1 == k2:
			return p.lfuse(t1, t2)
		}
	}
	g1 := p.groupByKind(t1)
	g2 := p.groupByKind(t2)
	var g [6]types.Type
	for k := range g {
		a, b := g1[k], g2[k]
		switch {
		case a != nil && b != nil:
			g[k] = p.lfuse(a, b)
		case a != nil:
			g[k] = a
		default:
			g[k] = b
		}
	}
	switch {
	case sameAddends(&g, t1):
		return t1
	case sameAddends(&g, t2):
		return t2
	}
	out := make([]types.Type, 0, len(g))
	for _, a := range g {
		if a != nil {
			out = append(out, a)
		}
	}
	return types.MustUnion(out...)
}

// groupByKind buckets the non-union addends of t by kind, folding
// same-kind addends with lfuse so each bucket holds at most one type.
func (p policy) groupByKind(t types.Type) [6]types.Type {
	var g [6]types.Type
	add := func(u types.Type) {
		k, ok := types.KindOf(u)
		if !ok {
			// Union alternatives are never unions or ε.
			panic(fmt.Sprintf("fusion: non-canonical union addend %T", u))
		}
		if g[k] == nil {
			g[k] = u
		} else {
			g[k] = p.lfuse(g[k], u)
		}
	}
	switch tt := t.(type) {
	case types.EmptyType:
	case *types.Union:
		for _, u := range tt.Alts() {
			add(u)
		}
	default:
		add(t)
	}
	return g
}

// sameAddends reports whether the kind buckets g hold exactly the
// addends of t, pointer for pointer — then t is the union of g.
func sameAddends(g *[6]types.Type, t types.Type) bool {
	n := 0
	for _, a := range g {
		if a != nil {
			n++
		}
	}
	u, ok := t.(*types.Union)
	if !ok {
		k, isKind := types.KindOf(t)
		return isKind && n == 1 && g[k] == t
	}
	if n != u.Len() {
		return false
	}
	for _, a := range u.Alts() {
		if k, _ := types.KindOf(a); g[k] != a {
			return false
		}
	}
	return true
}

// lfuse implements LFuse under a policy.
func (p policy) lfuse(t1, t2 types.Type) types.Type {
	k1, ok1 := types.KindOf(t1)
	k2, ok2 := types.KindOf(t2)
	if !ok1 || !ok2 || k1 != k2 {
		panic(fmt.Sprintf("fusion: LFuse on kinds %v and %v", t1, t2))
	}
	switch k1 {
	case types.KindNull, types.KindBool, types.KindNum, types.KindStr:
		// Line 2: two basic types of the same kind are the same type.
		return t1
	case types.KindRecord:
		return p.fuseRecordKind(t1, t2)
	default: // types.KindArray
		return p.fuseArrays(t1, t2)
	}
}

// fuseRecordKind dispatches the record kind: two plain records use the
// paper's field-wise rule; once either side is an abstracted map type
// {*: T} (the key-abstraction extension), the result stays a map, with
// every other shape's field contents folded into the element type (key
// abstraction wins over tagging); variants types merge tag-wise with
// each other and absorb plain records into Other (see tagged.go).
func (p policy) fuseRecordKind(t1, t2 types.Type) types.Type {
	r1, ok1 := t1.(*types.Record)
	r2, ok2 := t2.(*types.Record)
	if ok1 && ok2 {
		return p.fuseRecords(r1, r2)
	}
	_, m1 := t1.(*types.Map)
	_, m2 := t2.(*types.Map)
	if !m1 && !m2 {
		return p.fuseVariantsKind(t1, t2)
	}
	elem := types.Type(types.Empty)
	elem = p.absorbIntoMapElem(elem, t1)
	elem = p.absorbIntoMapElem(elem, t2)
	return types.MustMap(elem)
}

// absorbIntoMapElem folds a record-kind type's content into a map
// element type: map elements directly, record field types one by one,
// and variants component-wise (which makes the result a function of the
// underlying field-type multiset, independent of how the variants were
// merged beforehand).
func (p policy) absorbIntoMapElem(elem types.Type, t types.Type) types.Type {
	switch tt := t.(type) {
	case *types.Map:
		return p.fuse(elem, tt.Elem())
	case *types.Record:
		for _, f := range tt.Fields() {
			elem = p.fuse(elem, f.Type)
		}
		return elem
	case *types.Variants:
		for _, c := range tt.Cases() {
			elem = p.absorbIntoMapElem(elem, c.Type)
		}
		if tt.Other() != nil {
			elem = p.absorbIntoMapElem(elem, tt.Other())
		}
		return elem
	default:
		panic(fmt.Sprintf("fusion: map absorption of %T", t))
	}
}

// fuseRecords implements line 3 of Figure 6: FMatch fields fuse
// recursively keeping the minimum cardinality (? < 1, so a field is
// mandatory only when mandatory on both sides); FUnmatch fields become
// optional. The merge output is allocated only once it stops
// reproducing r1 or r2 field for field (until then it is a prefix of
// that operand, which is returned when the merge ends), and then at its
// exact final length, because the new record keeps the slice.
func (p policy) fuseRecords(r1, r2 *types.Record) types.Type {
	f1, f2 := r1.Fields(), r2.Fields()
	var out []types.Field
	same1, same2 := true, true
	n, i, j := 0, 0, 0
	for i < len(f1) || j < len(f2) {
		var f types.Field
		switch {
		case j == len(f2) || (i < len(f1) && f1[i].Key < f2[j].Key):
			f = types.Field{Key: f1[i].Key, Type: f1[i].Type, Optional: true}
			i++
		case i == len(f1) || f2[j].Key < f1[i].Key:
			f = types.Field{Key: f2[j].Key, Type: f2[j].Type, Optional: true}
			j++
		default:
			f = types.Field{
				Key:      f1[i].Key,
				Type:     p.fuse(f1[i].Type, f2[j].Type),
				Optional: f1[i].Optional || f2[j].Optional,
			}
			i++
			j++
		}
		if out == nil {
			prefix := f2
			if same1 {
				prefix = f1
			}
			same1 = same1 && n < len(f1) && f1[n] == f
			same2 = same2 && n < len(f2) && f2[n] == f
			if same1 || same2 {
				n++
				continue
			}
			out = make([]types.Field, n, n+1+mergedLen(f1[i:], f2[j:]))
			copy(out, prefix)
		}
		out = append(out, f)
	}
	switch {
	case out != nil:
		// Keys are unique within each input, so the merge is sorted and
		// cannot collide.
		return types.RecordFromSorted(out)
	case same1:
		return r1
	default:
		return r2
	}
}

// mergedLen counts the distinct keys of two key-sorted field lists.
func mergedLen(f1, f2 []types.Field) int {
	n, i, j := 0, 0, 0
	for i < len(f1) && j < len(f2) {
		switch {
		case f1[i].Key == f2[j].Key:
			i++
			j++
		case f1[i].Key < f2[j].Key:
			i++
		default:
			j++
		}
		n++
	}
	return n + len(f1) - i + len(f2) - j
}

// fuseArrays implements lines 4-7 of Figure 6, plus the positional
// extension: two equal-length tuples within the policy's cutoff fuse
// element-wise and stay positional; every other combination simplifies
// to a repeated type over the fused body types. Like fuseRecords, it
// returns an operand when that operand already is the result.
func (p policy) fuseArrays(t1, t2 types.Type) types.Type {
	a1, ok1 := t1.(*types.Tuple)
	a2, ok2 := t2.(*types.Tuple)
	if ok1 && ok2 && a1.Len() == a2.Len() && p.keepTuple(a1.Len()) {
		e1, e2 := a1.Elems(), a2.Elems()
		var elems []types.Type
		same1, same2 := true, true
		for i := range e1 {
			e := p.fuse(e1[i], e2[i])
			if elems == nil {
				prefix := e2
				if same1 {
					prefix = e1
				}
				same1 = same1 && e == e1[i]
				same2 = same2 && e == e2[i]
				if same1 || same2 {
					continue
				}
				elems = make([]types.Type, len(e1))
				copy(elems, prefix[:i])
			}
			elems[i] = e
		}
		switch {
		case elems != nil:
			return types.MustTuple(elems...)
		case same1:
			return a1
		default:
			return a2
		}
	}
	body := p.fuse(p.body(t1), p.body(t2))
	if r, ok := t1.(*types.Repeated); ok && r.Elem() == body {
		return r
	}
	if r, ok := t2.(*types.Repeated); ok && r.Elem() == body {
		return r
	}
	return types.MustRepeated(body)
}

// body returns the content type an array-kind type contributes to
// simplified fusion: the element type of a repeated type, or collapse of
// a tuple.
func (p policy) body(t types.Type) types.Type {
	switch tt := t.(type) {
	case *types.Repeated:
		return tt.Elem()
	case *types.Tuple:
		return p.collapse(tt.Elems())
	default:
		panic(fmt.Sprintf("fusion: array body of %T", t))
	}
}

// collapse implements lines 8-9 of Figure 6 under a policy, over a
// tuple's element types.
func (p policy) collapse(elems []types.Type) types.Type {
	acc := types.Type(types.Empty)
	// Right fold, as in collapse(ArrT(T, AT)) = Fuse(T, collapse(AT)).
	for i := len(elems) - 1; i >= 0; i-- {
		acc = p.fuse(elems[i], acc)
	}
	return acc
}

// simplify rewrites array types into the policy's canonical form. It
// returns t itself when no node inside it changes.
func (p policy) simplify(t types.Type) types.Type {
	switch tt := t.(type) {
	case types.Basic, types.EmptyType:
		return t
	case *types.Record:
		return mapFields(tt, p.simplify)
	case *types.Tuple:
		elems, changed := mapEach(tt.Elems(), p.simplify)
		switch {
		case !p.keepTuple(tt.Len()):
			return types.MustRepeated(p.collapse(elems))
		case changed:
			return types.MustTuple(elems...)
		default:
			return t
		}
	case *types.Map:
		if e := p.simplify(tt.Elem()); e != tt.Elem() {
			return types.MustMap(e)
		}
		return t
	case *types.Variants:
		if tt.Collapsed() {
			other := p.simplify(tt.Other()).(*types.Record)
			if other == tt.Other() {
				return t
			}
			return types.MustCollapsedVariants(other)
		}
		return mapCases(tt, p.simplify)
	case *types.Repeated:
		if e := p.simplify(tt.Elem()); e != tt.Elem() {
			return types.MustRepeated(e)
		}
		return t
	case *types.Union:
		alts, changed := mapEach(tt.Alts(), p.simplify)
		if !changed && distinctKinds(alts) {
			return t
		}
		// Simplification can merge two array-kind alternatives (a tuple
		// and a repeated type) into the same kind slot; refuse through
		// fuse to restore normality.
		acc := types.Type(types.Empty)
		for _, a := range alts {
			acc = p.fuse(acc, a)
		}
		return acc
	default:
		panic(fmt.Sprintf("fusion: unknown type %T", t))
	}
}

// mapFields applies f to every field type of r. It returns r itself
// when f returned every type unchanged, and a record over a fresh field
// slice otherwise — the copy-on-write step of simplify and finalize.
func mapFields(r *types.Record, f func(types.Type) types.Type) *types.Record {
	fs := r.Fields()
	var out []types.Field
	for i, fd := range fs {
		t := f(fd.Type)
		if out == nil {
			if t == fd.Type {
				continue
			}
			out = make([]types.Field, len(fs))
			copy(out, fs[:i])
		}
		out[i] = types.Field{Key: fd.Key, Type: t, Optional: fd.Optional}
	}
	if out == nil {
		return r
	}
	return types.RecordFromSorted(out)
}

// mapCases applies f to every case record and to Other of a keyed or
// wrapper variants type. It returns v itself when f returned every
// record unchanged.
func mapCases(v *types.Variants, f func(types.Type) types.Type) *types.Variants {
	cases := v.Cases()
	var cs []types.Variant
	for i, c := range cases {
		r := f(c.Type).(*types.Record)
		if cs == nil {
			if r == c.Type {
				continue
			}
			cs = make([]types.Variant, len(cases))
			copy(cs, cases[:i])
		}
		cs[i] = types.Variant{Tag: c.Tag, Type: r}
	}
	other := v.Other()
	if other != nil {
		other = f(other).(*types.Record)
	}
	switch {
	case cs != nil:
		return types.MustVariants(v.Key(), v.Wrapper(), cs, other)
	case other != v.Other():
		return types.MustVariants(v.Key(), v.Wrapper(), cases, other)
	default:
		return v
	}
}

// mapEach applies f to every type of ts. It returns ts itself and false
// when f returned every type unchanged, and a fresh slice and true
// otherwise — the copy-on-write step of simplify and finalize.
func mapEach(ts []types.Type, f func(types.Type) types.Type) ([]types.Type, bool) {
	var out []types.Type
	for i, t := range ts {
		s := f(t)
		if out == nil {
			if s == t {
				continue
			}
			out = make([]types.Type, len(ts))
			copy(out, ts[:i])
		}
		out[i] = s
	}
	if out == nil {
		return ts, false
	}
	return out, true
}

// distinctKinds reports whether the (non-union) types have pairwise
// different kinds, i.e. whether their union is normal at the top.
func distinctKinds(ts []types.Type) bool {
	var seen [6]bool
	for _, t := range ts {
		k, _ := types.KindOf(t)
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}
