package infer

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/intern"
	"repro/internal/jsontext"
	"repro/internal/types"
)

// normalStrategies are the fusion policies the normal mode is checked
// under: both array policies, a tight tuple cutoff, and tagged unions
// alone and over tuples.
var normalStrategies = []fusion.Strategy{
	fusion.Paper{},
	fusion.Tuples{},
	fusion.Tuples{MaxLen: 2},
	fusion.Tagged{},
	fusion.Tagged{Inner: fusion.Tuples{}},
}

// compareModes is the normal-mode oracle. It decodes data twice, with a
// plain decoder and with a normal-mode decoder under o (both with o's
// promoter, and with an "all" enrichment lattice each when observe is
// set), and returns the first disagreement: a normal type that is not
// Simplify of the plain type, a RawSizeHash that is not the plain
// type's (Size, Hash), a different error (offset and message), or a
// different enrichment report.
func compareModes(data []byte, o fusion.Options, observe bool) error {
	plain := NewBytesDecoder(data)
	defer plain.Release()
	norm := NewBytesDecoder(data)
	defer norm.Release()
	norm.SetNormalizer(o)
	if pr := o.Promoter(); pr != nil {
		plain.SetPromoter(pr)
		norm.SetPromoter(pr)
	}
	var latPlain, latNorm *enrich.Lattice
	if observe {
		set, err := enrich.ParseSet([]string{"all"})
		if err != nil {
			return err
		}
		latPlain, latNorm = set.NewLattice(), set.NewLattice()
		plain.SetObserver(latPlain)
		norm.SetObserver(latNorm)
	}
	for i := 0; ; i++ {
		pt, perr := plain.Next()
		nt, nerr := norm.Next()
		if perr != nil || nerr != nil {
			if err := sameError(perr, nerr); err != nil {
				return fmt.Errorf("value %d: %w", i, err)
			}
			break
		}
		if want := o.Simplify(pt); !types.Equal(nt, want) {
			return fmt.Errorf("value %d: normal mode gave %s, want Simplify(%s) = %s", i, nt, pt, want)
		}
		size, hash := norm.RawSizeHash()
		if size != pt.Size() || hash != types.Hash(pt) {
			return fmt.Errorf("value %d: RawSizeHash = (%d, %#x), want (%d, %#x) of %s",
				i, size, hash, pt.Size(), types.Hash(pt), pt)
		}
	}
	if !observe {
		return nil
	}
	rp, err := latPlain.MarshalReport()
	if err != nil {
		return err
	}
	rn, err := latNorm.MarshalReport()
	if err != nil {
		return err
	}
	if !bytes.Equal(rp, rn) {
		return fmt.Errorf("enrichment differs:\nplain  %s\nnormal %s", rp, rn)
	}
	return nil
}

// sameError reports how two decode errors differ: both must be io.EOF,
// or syntax errors at the same offset with the same message, or other
// errors with the same text.
func sameError(plain, norm error) error {
	if plain == nil || norm == nil {
		return fmt.Errorf("plain error %v, normal-mode error %v", plain, norm)
	}
	var sp, sn *jsontext.SyntaxError
	if errors.As(plain, &sp) != errors.As(norm, &sn) ||
		(sp != nil && (sp.Offset != sn.Offset || sp.Msg != sn.Msg)) ||
		plain.Error() != norm.Error() {
		return fmt.Errorf("plain error %q, normal-mode error %q", plain, norm)
	}
	return nil
}

// unsortedNDJSON has objects whose keys arrive out of order, which the
// generators (they write keys sorted) never produce: the decoder's
// in-place field sort must carry the child hashes along.
const unsortedNDJSON = `{"z": 1, "a": [true, {"y": null, "b": "s"}], "m": {"q": [1, 2], "c": []}}
{"type": "push", "b": {"k": 2, "j": 1}, "a": [[1], ["x", 2]]}
{"w": {"v": {"u": "t", "s": [{"r": 1, "p": 2}]}}}
`

// TestNormalModeMatchesPlain runs the oracle over every generator (and
// objects with unsorted keys), every strategy, with and without an
// observer.
func TestNormalModeMatchesPlain(t *testing.T) {
	inputs := map[string][]byte{"unsorted": []byte(unsortedNDJSON)}
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = dataset.NDJSON(g, 300, 5)
	}
	for name, data := range inputs {
		for _, s := range normalStrategies {
			for _, observe := range []bool{false, true} {
				if err := compareModes(data, fusion.Options{Strategy: s}, observe); err != nil {
					t.Errorf("%s/%s/observe=%v: %v", name, s.Name(), observe, err)
				}
			}
		}
	}
}

// TestNormalModeErrors: the normal mode fails exactly where and how the
// plain decoder fails — the malformed corpus, alone and after a good
// value, and a value nested one level past the limit.
func TestNormalModeErrors(t *testing.T) {
	deep := jsontext.DefaultMaxDepth + 1
	inputs := append([]string(nil), decoderErrorCorpus...)
	for _, src := range decoderErrorCorpus {
		inputs = append(inputs, `{"ok":[1,{"x":[]}]}`+"\n"+src)
	}
	inputs = append(inputs,
		strings.Repeat(`{"a":`, deep)+"1"+strings.Repeat("}", deep),
		strings.Repeat(`[`, deep)+"1"+strings.Repeat("]", deep),
	)
	for _, src := range inputs {
		for _, s := range normalStrategies {
			if err := compareModes([]byte(src), fusion.Options{Strategy: s}, true); err != nil {
				t.Errorf("%s on %.40q: %v", s.Name(), src, err)
			}
		}
		// The oracle accepts two matching errors; make sure there was one.
		d := NewBytesDecoder([]byte(src))
		d.SetNormalizer(fusion.Options{})
		var err error
		for err == nil {
			_, err = d.Next()
		}
		d.Release()
		if err == io.EOF {
			t.Errorf("normal mode accepted %.40q", src)
		}
	}
}

// TestNormalModeExcludesInterner: the two modes cannot be combined.
func TestNormalModeExcludesInterner(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	d := NewBytesDecoder(nil)
	defer d.Release()
	d.SetNormalizer(fusion.Options{})
	mustPanic("SetInterner after SetNormalizer", func() { d.SetInterner(intern.NewTable()) })
	d.SetNormalizer(nil)
	d.SetInterner(intern.NewTable())
	mustPanic("SetNormalizer after SetInterner", func() { d.SetNormalizer(fusion.Options{}) })
}

// FuzzNormalDecoder applies the normal-mode oracle to arbitrary bytes
// under the Paper and Tagged strategies.
func FuzzNormalDecoder(f *testing.F) {
	for _, src := range decoderErrorCorpus {
		f.Add([]byte(src))
	}
	for _, src := range []string{
		`{"a": [1, "x", {"b": null}], "c": true}`,
		`[[], [[]], [1, [2, 3]], {}]`,
		`{"type": "push", "payload": {"ref": "main", "commits": [{"id": 1}]}}`,
		`{"delete": {"status": {"id": 7}}}` + "\n" + `{"scrub_geo": {"user_id": 1}}`,
		`{"z": 1, "a": [true, false], "m": {"y": null, "b": "s"}}`,
	} {
		f.Add([]byte(src))
	}
	for _, name := range []string{"github", "webhook"} {
		g, err := dataset.New(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(dataset.NDJSON(g, 3, 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range []fusion.Strategy{fusion.Paper{}, fusion.Tagged{}} {
			if err := compareModes(data, fusion.Options{Strategy: s}, false); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
		}
	})
}
