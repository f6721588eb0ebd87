package profile

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/types"
	"repro/internal/value"
)

func profileOf(vs ...value.Value) *Profile {
	var p Profile
	for _, v := range vs {
		p.Add(v)
	}
	return &p
}

func TestEmptyProfile(t *testing.T) {
	var p Profile
	if !types.Equal(p.Type(), types.Empty) {
		t.Errorf("empty profile type = %s", p.Type())
	}
	if !strings.Contains(p.Render(), "empty") {
		t.Errorf("Render = %q", p.Render())
	}
}

func TestScalarStats(t *testing.T) {
	p := profileOf(value.Num(3), value.Num(10), value.Num(-1), value.Bool(true), value.Bool(false))
	ks := p.Root.Kinds[types.KindNum]
	if ks.Count != 3 || ks.MinNum != -1 || ks.MaxNum != 10 || ks.SumNum != 12 {
		t.Errorf("num stats = %+v", ks)
	}
	bs := p.Root.Kinds[types.KindBool]
	if bs.Count != 2 || bs.TrueCount != 1 {
		t.Errorf("bool stats = %+v", bs)
	}
	if got := p.Type(); !types.Equal(got, types.MustParse("Bool + Num")) {
		t.Errorf("type = %s", got)
	}
}

func TestStringStats(t *testing.T) {
	p := profileOf(value.Str("ab"), value.Str(""), value.Str("abcdef"))
	ks := p.Root.Kinds[types.KindStr]
	if ks.MinStrLen != 0 || ks.MaxStrLen != 6 || ks.TotalStrLen != 8 {
		t.Errorf("str stats = %+v", ks)
	}
}

func TestRecordFieldPresence(t *testing.T) {
	p := profileOf(
		value.Obj("a", value.Num(1)),
		value.Obj("a", value.Num(2), "b", value.Str("x")),
		value.Obj("a", value.Num(3), "b", value.Str("y")),
	)
	ks := p.Root.Kinds[types.KindRecord]
	if ks.Fields["a"].Count != 3 || ks.Fields["b"].Count != 2 {
		t.Errorf("field counts: a=%d b=%d", ks.Fields["a"].Count, ks.Fields["b"].Count)
	}
	want := types.MustParse("{a: Num, b: Str?}")
	if got := p.Type(); !types.Equal(got, want) {
		t.Errorf("type = %s, want %s", got, want)
	}
}

func TestArrayStats(t *testing.T) {
	p := profileOf(
		value.Arr(value.Num(1), value.Num(2)),
		value.Arr(),
		value.Arr(value.Str("s"), value.Num(3), value.Num(4)),
	)
	ks := p.Root.Kinds[types.KindArray]
	if ks.MinLen != 0 || ks.MaxLen != 3 || ks.TotalLen != 5 {
		t.Errorf("array stats = %+v", ks)
	}
	want := types.MustParse("[(Num + Str)*]")
	if got := p.Type(); !types.Equal(got, want) {
		t.Errorf("type = %s, want %s", got, want)
	}
}

func TestAllEmptyArrays(t *testing.T) {
	p := profileOf(value.Arr(), value.Arr())
	if got := p.Type(); !types.Equal(got, types.MustParse("[ε*]")) {
		t.Errorf("type = %s, want [ε*]", got)
	}
}

func TestMixedKindsAtOnePosition(t *testing.T) {
	p := profileOf(
		value.Obj("x", value.Num(1)),
		value.Obj("x", value.Str("one")),
		value.Obj("x", value.Null{}),
	)
	want := types.MustParse("{x: Null + Num + Str}")
	if got := p.Type(); !types.Equal(got, want) {
		t.Errorf("type = %s, want %s", got, want)
	}
}

func TestMergeMatchesSingleProfile(t *testing.T) {
	g, _ := dataset.New("mixed")
	vs := dataset.Values(g, 200, 3)
	whole := profileOf(vs...)
	a := profileOf(vs[:70]...)
	b := profileOf(vs[70:150]...)
	c := profileOf(vs[150:]...)
	a.Merge(b)
	a.Merge(c)
	if a.Count != whole.Count {
		t.Errorf("counts: %d vs %d", a.Count, whole.Count)
	}
	if !types.Equal(a.Type(), whole.Type()) {
		t.Errorf("types differ:\n%s\n%s", a.Type(), whole.Type())
	}
	if a.Render() != whole.Render() {
		t.Error("renders differ after merge")
	}
}

func TestMergeEmptyAndNil(t *testing.T) {
	p := profileOf(value.Num(1))
	p.Merge(nil)
	p.Merge(&Profile{})
	if p.Count != 1 {
		t.Errorf("Count = %d", p.Count)
	}
	var q Profile
	q.Merge(p)
	if q.Count != 1 || !types.Equal(q.Type(), types.Num) {
		t.Errorf("merged into empty: %d %s", q.Count, q.Type())
	}
}

func TestPropertyMergeAssociativeCommutative(t *testing.T) {
	g, _ := dataset.New("mixed")
	vs := dataset.Values(g, 120, 9)
	mk := func(lo, hi int) *Profile { return profileOf(vs[lo:hi]...) }
	f := func(cut1, cut2 uint8) bool {
		c1 := 1 + int(cut1)%(len(vs)-2)
		c2 := c1 + 1 + int(cut2)%(len(vs)-c1-1)
		// (a+b)+c
		left := mk(0, c1)
		left.Merge(mk(c1, c2))
		left.Merge(mk(c2, len(vs)))
		// a+(c+b) — different order and grouping
		rightTail := mk(c2, len(vs))
		rightTail.Merge(mk(c1, c2))
		right := mk(0, c1)
		right.Merge(rightTail)
		return left.Render() == right.Render() && types.Equal(left.Type(), right.Type())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestTypeMatchesFusionPipeline(t *testing.T) {
	// The profile's derived type must equal the fusion pipeline's schema
	// (with per-value simplification): two independent implementations
	// of the same semantics.
	for _, name := range dataset.Names() {
		g, _ := dataset.New(name)
		vs := dataset.Values(g, 150, 7)
		var p Profile
		acc := types.Type(types.Empty)
		for _, v := range vs {
			p.Add(v)
			acc = fusion.Fuse(acc, fusion.Simplify(infer.Infer(v)))
		}
		if !types.Equal(p.Type(), acc) {
			t.Errorf("%s: profile type != fused type:\nprofile: %s\nfusion:  %s", name, p.Type(), acc)
		}
	}
}

func TestRenderShape(t *testing.T) {
	p := profileOf(
		value.Obj("id", value.Num(1), "name", value.Str("ab"), "ok", value.Bool(true)),
		value.Obj("id", value.Num(9), "tags", value.Arr(value.Str("x")), "ok", value.Bool(false)),
	)
	out := p.Render()
	for _, want := range []string{
		"profile of 2 values",
		`"id": Num ⟨1..9, mean 5⟩`,
		`"name"? ⟨50%⟩: Str`,
		`"ok": Bool ⟨50% true⟩`,
		"items",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderParsesAsSchemaShape(t *testing.T) {
	// The rendered profile is for humans, but its skeleton must mention
	// every field the schema has.
	g, _ := dataset.New("twitter")
	vs := dataset.Values(g, 100, 11)
	p := profileOf(vs...)
	out := p.Render()
	types.Walk(p.Type(), func(tt types.Type) bool {
		if rec, ok := tt.(*types.Record); ok {
			for _, f := range rec.Fields() {
				if !strings.Contains(out, `"`+f.Key+`"`) {
					t.Errorf("render lacks field %q", f.Key)
					return false
				}
			}
		}
		return true
	})
}

func TestProfileFromNDJSONStream(t *testing.T) {
	// Profiles integrate with the parser: one pass, constant shape.
	g, _ := dataset.New("github")
	data := dataset.NDJSON(g, 50, 13)
	var p Profile
	if err := jsontext.ScanValues(strings.NewReader(string(data)), func(v value.Value) error {
		p.Add(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p.Count != 50 {
		t.Errorf("Count = %d", p.Count)
	}
	if !types.IsNormal(p.Type()) {
		t.Errorf("profile type not normal: %s", p.Type())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	g, _ := dataset.New("twitter")
	p := profileOf(dataset.Values(g, 60, 3)...)
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Count != p.Count {
		t.Errorf("count %d != %d", back.Count, p.Count)
	}
	if back.Render() != p.Render() {
		t.Error("render differs after codec round trip")
	}
	if !types.Equal(back.Type(), p.Type()) {
		t.Error("derived type differs after codec round trip")
	}
	// The decoded profile keeps merging.
	more := profileOf(dataset.Values(g, 20, 9)...)
	back.Merge(more)
	if back.Count != p.Count+20 {
		t.Errorf("merged count = %d", back.Count)
	}
}

func TestCodecEmptyProfile(t *testing.T) {
	var p Profile
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Count != 0 || back.Root != nil {
		t.Errorf("empty round trip = %+v", back)
	}
}

func TestCodecErrors(t *testing.T) {
	var p Profile
	if err := p.UnmarshalJSON([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if err := p.UnmarshalJSON([]byte(`{"count":1,"root":{"total":1,"kinds":{"bogus":{"count":1}}}}`)); err == nil {
		t.Error("unknown kind accepted")
	}
}
