// Package infer implements the first phase of the paper's approach
// (Section 5.1): the type-inference rules of Figure 4, which map every
// JSON value to a type isomorphic to it. The inferred types use no union
// types, no optional fields and no repetition types; those are introduced
// only by the fusion phase (internal/fusion).
//
// Two entry points are provided: Infer types an already-parsed
// value.Value, and a streaming decoder (Decoder) infers types directly
// from the token stream of internal/jsontext without materializing
// values, which is how the map phase processes large files.
//
// The decoder also has a normal mode (SetNormalizer) that runs the
// start of phase two in the same pass: it simplifies each array as it
// closes it (Figure 6, lines 8-9), so it emits repeated types — and,
// inside them, the unions and optional fields that collapsing the
// elements introduces — exactly as Simplify would rewrite the Figure 4
// type. The plain and streaming pipeline paths use it; the Figure 4
// type is then never built, and the decoder reports its size and hash
// (RawSizeHash) for the statistics.
package infer

import (
	"fmt"
	"io"

	"repro/internal/intern"
	"repro/internal/jsontext"
	"repro/internal/types"
	"repro/internal/value"
)

// Infer implements the judgment ⊢ V ▷ T of Figure 4. The result is
// isomorphic to the value: records map to record types with all fields
// mandatory, arrays map to positional tuple types. Key uniqueness is
// guaranteed by the value.Record invariant, mirroring the l ∉ Keys(RT)
// premise of the record rule.
//
// By Lemma 5.1 the result is sound: V ∈ ⟦Infer(V)⟧, which
// TestLemma51Soundness verifies on random values.
func Infer(v value.Value) types.Type {
	switch vv := v.(type) {
	case value.Null:
		return types.Null
	case value.Bool:
		return types.Bool
	case value.Num:
		return types.Num
	case value.Str:
		return types.Str
	case *value.Record:
		vf := vv.Fields()
		fields := make([]types.Field, len(vf))
		for i, f := range vf {
			fields[i] = types.Field{Key: f.Key, Type: Infer(f.Value)}
		}
		// Keys are unique and sorted in the record value, so this
		// cannot fail.
		return types.MustRecord(fields...)
	case value.Array:
		elems := make([]types.Type, len(vv))
		for i, e := range vv {
			elems[i] = Infer(e)
		}
		return types.MustTuple(elems...)
	default:
		panic(fmt.Sprintf("infer: unknown value %T", v))
	}
}

// An Observer receives the value events of the stream as the decoder
// infers types — the hook the enrichment lattice (internal/enrich)
// rides to compute value-level statistics in the same single pass.
// Events follow the value structure: scalars fire their kind's hook
// with the decoded value, composites bracket their children (Key fires
// before each object member's value, EndArray carries the element
// count). A value that fails to decode may leave the observer
// mid-composite; callers discard such observers (the failed chunk's
// accumulator is dropped too) or reset them.
type Observer interface {
	Null()
	Bool(b bool)
	Num(f float64)
	Str(s string)
	BeginObject()
	Key(k string)
	EndObject()
	BeginArray()
	EndArray(count int)
}

// A Promoter is the phase-one hook of a tagged-union fusion strategy
// (fusion.Promoter implements it): the decoder consults it per object
// and wraps records carrying a discriminator into single-case variants
// types. The decoder detects two discriminator shapes:
//
//   - keyed: a candidate field (CandidateKeys, priority ordered) whose
//     value is a string no longer than MaxTagLen — Promote wraps the
//     record with that key/tag pair;
//   - wrapper: an object with exactly one field whose value is an
//     object — PromoteWrapper wraps it with the field key as tag.
//
// A nil promoter (the default) leaves inference exactly as the paper
// specifies.
type Promoter interface {
	CandidateKeys() []string
	MaxTagLen() int
	Promote(r *types.Record, key, tag string) types.Type
	PromoteWrapper(r *types.Record, tag string) types.Type
}

// A Normalizer builds the normal form of an array from the normal forms
// of its elements: phase two's array simplification (Figure 6, lines
// 8-9) applied as the decoder closes each array, so the decoder emits
// the fusion strategy's normal form without a separate Simplify pass.
// fusion.Options implements it.
type Normalizer interface {
	// NormalArray returns the normal form of the tuple type of elems,
	// whose types are normal already; it must be a pure function of its
	// argument. elems is the decoder's scratch: implementations copy
	// what they keep.
	NormalArray(elems []types.Type) types.Type
}

// Decoder infers one type per top-level JSON value read from an input
// stream, without building intermediate value trees.
type Decoder struct {
	lex *jsontext.Lexer

	// tab, when set, hash-conses every inferred node so Next returns the
	// canonical representative of each distinct type (see SetInterner).
	tab *intern.Table

	// norm, when set, makes Next return normal forms (see
	// SetNormalizer); normEmpty caches the normal form of [], and last
	// holds the raw size and hash of the last value Next returned.
	norm      Normalizer
	normEmpty types.Type
	last      raw

	// obs, when set, receives value events alongside inference.
	obs Observer

	// pr, when set, promotes discriminated records to variants types;
	// prKeys and prMaxTag cache its parameters for the per-field check.
	pr       Promoter
	prKeys   []string
	prMaxTag int

	// fieldScratch and elemScratch hold one reusable accumulator per
	// nesting depth, so a record or array at depth d appends into the
	// same backing array on every value of the stream instead of growing
	// a fresh slice per composite value. hashScratch holds the raw hashes
	// of the children of the composite open at each depth (normal mode
	// only; one value per depth is open at a time, object or array).
	fieldScratch [][]types.Field
	elemScratch  [][]types.Type
	hashScratch  [][]uint64
}

// raw is the size and structural hash (types.Hash) of a value's raw
// phase-one type, which the normal mode computes bottom-up beside the
// normal form it builds. The other modes leave composites' raw zero.
type raw struct {
	size int
	hash uint64
}

// Raw sizes and hashes of the leaves and the empty composites.
var (
	nullRaw       = raw{1, types.HashBasic(types.Null)}
	boolRaw       = raw{1, types.HashBasic(types.Bool)}
	numRaw        = raw{1, types.HashBasic(types.Num)}
	strRaw        = raw{1, types.HashBasic(types.Str)}
	emptyTupleRaw = raw{1, types.HashTuple(nil)}
	emptyRecRaw   = raw{1, types.HashRecord(nil, nil)}
)

// emptyRecord is the type of {} outside interning; types are immutable,
// so every empty object shares it.
var emptyRecord = types.MustRecord()

// NewDecoder returns a streaming type decoder for r. The decoder draws
// its lexer from a pool; call Release when done with the stream to
// recycle it (failing to is safe, just slower).
func NewDecoder(r io.Reader) *Decoder {
	lex := jsontext.AcquireLexer(r)
	lex.RawStrings(true)
	return &Decoder{lex: lex}
}

// NewBytesDecoder returns a streaming type decoder reading directly
// from data — the map-task entry point. It skips the bufio copy of
// NewDecoder(bytes.NewReader(data)) and lexes strings zero-copy:
// object keys are materialized through the lexer's intern cache (free
// after first occurrence) and value strings are never materialized at
// all unless an Observer is attached.
func NewBytesDecoder(data []byte) *Decoder {
	lex := jsontext.AcquireLexerBytes(data)
	lex.RawStrings(true)
	return &Decoder{lex: lex}
}

// Release returns the decoder's pooled resources. The decoder must not
// be used afterwards.
func (d *Decoder) Release() {
	if d.lex != nil {
		d.lex.Release()
		d.lex = nil
	}
}

// SetInterner directs the decoder to canonicalize every inferred type
// in tab: Next then returns hash-consed nodes, so callers can compare
// types by identity (Table.Ref) and deduplicate repeated shapes without
// walking them. Inference results are unchanged — the canonical node is
// structurally equal to what the plain decoder would build. Interning
// and the normal mode exclude each other: installing a table while a
// Normalizer is set panics.
func (d *Decoder) SetInterner(tab *intern.Table) {
	if tab != nil && d.norm != nil {
		panic("infer: SetInterner on a normal-mode decoder")
	}
	d.tab = tab
}

// SetNormalizer switches the decoder to its normal mode (nil switches
// back): Next then returns the normal form of each value's type — the
// Simplify of what the plain decoder would return, so arrays come out
// as repeated types or, where the policy keeps them, as tuples — and
// RawSizeHash reports the size and hash of that plain type, computed in
// the same pass. Installing a Normalizer while an interner is set
// panics.
func (d *Decoder) SetNormalizer(n Normalizer) {
	if n != nil && d.tab != nil {
		panic("infer: SetNormalizer on an interning decoder")
	}
	d.norm = n
	d.normEmpty = nil
	if n != nil {
		d.normEmpty = n.NormalArray(nil)
	}
}

// SetObserver directs the decoder to report value events to obs while
// inferring; nil (the default) reports nothing and costs one branch
// per token.
func (d *Decoder) SetObserver(obs Observer) { d.obs = obs }

// SetPromoter installs a tagged-union promoter; nil (the default)
// infers plain record types exactly as the paper specifies.
func (d *Decoder) SetPromoter(pr Promoter) {
	d.pr = pr
	d.prKeys = nil
	d.prMaxTag = 0
	if pr != nil {
		d.prKeys = pr.CandidateKeys()
		d.prMaxTag = pr.MaxTagLen()
	}
}

// Next infers the type of the next top-level value in the stream. It
// returns io.EOF at the end of the input.
func (d *Decoder) Next() (types.Type, error) {
	tok, err := d.lex.Next()
	if err != nil {
		return nil, err
	}
	if tok.Kind == jsontext.TokEOF {
		return nil, io.EOF
	}
	t, m, err := d.inferValue(tok, 0)
	if d.norm == nil {
		m = raw{}
	}
	d.last = m
	return t, err
}

// RawSizeHash returns, in normal mode, the Size and types.Hash of the
// plain (phase-one) type of the value Next last returned — the inputs
// of the Tables 2-5 statistics, which count raw types — without that
// type ever being built. Outside normal mode it returns zeros; the
// plain type is what Next returned.
func (d *Decoder) RawSizeHash() (size int, hash uint64) { return d.last.size, d.last.hash }

// Offset returns the number of input bytes consumed so far.
func (d *Decoder) Offset() int64 { return d.lex.Offset() }

func (d *Decoder) syntaxErr(off int64, format string, args ...any) error {
	return &jsontext.SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

func (d *Decoder) inferValue(tok jsontext.Token, depth int) (types.Type, raw, error) {
	if depth > jsontext.DefaultMaxDepth {
		return nil, raw{}, d.syntaxErr(tok.Offset, "nesting deeper than %d", jsontext.DefaultMaxDepth)
	}
	switch tok.Kind {
	case jsontext.TokNull:
		if d.obs != nil {
			d.obs.Null()
		}
		return types.Null, nullRaw, nil
	case jsontext.TokTrue, jsontext.TokFalse:
		if d.obs != nil {
			d.obs.Bool(tok.Kind == jsontext.TokTrue)
		}
		return types.Bool, boolRaw, nil
	case jsontext.TokNum:
		if d.obs != nil {
			d.obs.Num(tok.Num)
		}
		return types.Num, numRaw, nil
	case jsontext.TokStr:
		if d.obs != nil {
			// The lexer runs in raw-string mode, so a value string is
			// only materialized when someone is watching.
			d.obs.Str(d.lex.InternBytes(tok.Bytes))
		}
		return types.Str, strRaw, nil
	case jsontext.TokBeginObject:
		return d.inferObject(depth)
	case jsontext.TokBeginArray:
		return d.inferArray(depth)
	default:
		return nil, raw{}, d.syntaxErr(tok.Offset, "unexpected %s", tok.Kind)
	}
}

// fieldsAt returns the (emptied) field accumulator for a nesting depth.
func (d *Decoder) fieldsAt(depth int) []types.Field {
	for len(d.fieldScratch) <= depth {
		d.fieldScratch = append(d.fieldScratch, nil)
	}
	return d.fieldScratch[depth][:0]
}

// elemsAt returns the (emptied) element accumulator for a nesting depth.
func (d *Decoder) elemsAt(depth int) []types.Type {
	for len(d.elemScratch) <= depth {
		d.elemScratch = append(d.elemScratch, nil)
	}
	return d.elemScratch[depth][:0]
}

// hashesAt returns the (emptied) child-hash accumulator for a nesting
// depth, or nil outside normal mode.
func (d *Decoder) hashesAt(depth int) []uint64 {
	if d.norm == nil {
		return nil
	}
	for len(d.hashScratch) <= depth {
		d.hashScratch = append(d.hashScratch, nil)
	}
	return d.hashScratch[depth][:0]
}

func (d *Decoder) inferObject(depth int) (types.Type, raw, error) {
	if d.obs != nil {
		d.obs.BeginObject()
	}
	fields := d.fieldsAt(depth)
	hashes := d.hashesAt(depth)
	size := 1
	first := true
	// Discriminator capture for the tagged strategy: the best (lowest
	// priority index) candidate key seen with a short string value, and
	// whether the first field's value was an object (the wrapper shape).
	tagPrio := -1
	var tagKey, tagVal string
	wrapperCand := false
	for {
		tok, err := d.lex.Next()
		if err != nil {
			return nil, raw{}, err
		}
		if first && tok.Kind == jsontext.TokEndObject {
			if d.obs != nil {
				d.obs.EndObject()
			}
			if d.tab != nil {
				return d.tab.InternRecord(nil), raw{}, nil
			}
			return emptyRecord, emptyRecRaw, nil
		}
		if !first {
			switch tok.Kind {
			case jsontext.TokEndObject:
				if d.obs != nil {
					d.obs.EndObject()
				}
				d.fieldScratch[depth] = fields
				if d.norm != nil {
					d.hashScratch[depth] = hashes
				}
				rt, m := d.buildRecord(fields, hashes, size)
				if d.pr == nil {
					return rt, m, nil
				}
				t, m := d.promote(rt.(*types.Record), m, tagPrio >= 0, tagKey, tagVal, wrapperCand && len(fields) == 1)
				return t, m, nil
			case jsontext.TokComma:
				tok, err = d.lex.Next()
				if err != nil {
					return nil, raw{}, err
				}
			default:
				return nil, raw{}, d.syntaxErr(tok.Offset, "expected ',' or '}' in object, got %s", tok.Kind)
			}
		}
		first = false
		if tok.Kind != jsontext.TokStr {
			return nil, raw{}, d.syntaxErr(tok.Offset, "expected object key string, got %s", tok.Kind)
		}
		// Keys go through the lexer's intern cache: after the first
		// occurrence a repeated field name costs zero allocations.
		key := d.lex.InternBytes(tok.Bytes)
		// Objects have few keys in practice, so a linear scan of the
		// accumulated fields beats allocating a per-object set.
		for i := range fields {
			if fields[i].Key == key {
				return nil, raw{}, d.syntaxErr(tok.Offset, "duplicate object key %q", key)
			}
		}
		if d.obs != nil {
			d.obs.Key(key)
		}
		colon, err := d.lex.Next()
		if err != nil {
			return nil, raw{}, err
		}
		if colon.Kind != jsontext.TokColon {
			return nil, raw{}, d.syntaxErr(colon.Offset, "expected ':' after key, got %s", colon.Kind)
		}
		vt, err := d.lex.Next()
		if err != nil {
			return nil, raw{}, err
		}
		if d.pr != nil {
			if len(fields) == 0 && vt.Kind == jsontext.TokBeginObject {
				wrapperCand = true
			}
			if vt.Kind == jsontext.TokStr {
				for prio, cand := range d.prKeys {
					if cand != key || (tagPrio >= 0 && prio >= tagPrio) {
						continue
					}
					// Materialize the tag now — the token's bytes are only
					// valid until the next lexer call. Tags are low
					// cardinality, so the intern cache makes this free
					// after the first occurrence of each.
					if tag := d.lex.InternBytes(vt.Bytes); len(tag) <= d.prMaxTag {
						tagPrio, tagKey, tagVal = prio, key, tag
					}
					break
				}
			}
		}
		ft, fm, err := d.inferValue(vt, depth+1)
		if err != nil {
			return nil, raw{}, err
		}
		fields = append(fields, types.Field{Key: key, Type: ft})
		if d.norm != nil {
			hashes = append(hashes, fm.hash)
			size += 1 + fm.size
		}
	}
}

// buildRecord turns accumulated (unique-keyed, parse-ordered) fields
// into a record type. It sorts in place — an insertion sort, because
// objects are small and the keys of real datasets arrive nearly sorted
// — carrying the children's raw hashes along in normal mode. The
// interning path then probes the table, so a repeated record shape
// costs zero allocations; the others copy the fields once, at their
// exact length. fields and hashes are scratch owned by the caller.
// size is the raw size accumulated in normal mode.
func (d *Decoder) buildRecord(fields []types.Field, hashes []uint64, size int) (types.Type, raw) {
	for i := 1; i < len(fields); i++ {
		f := fields[i]
		j := i - 1
		for j >= 0 && fields[j].Key > f.Key {
			fields[j+1] = fields[j]
			j--
		}
		fields[j+1] = f
		if d.norm != nil && j+1 < i {
			h := hashes[i]
			copy(hashes[j+2:i+1], hashes[j+1:i])
			hashes[j+1] = h
		}
	}
	if d.tab != nil {
		return d.tab.InternRecord(fields), raw{}
	}
	r := types.RecordFromSorted(append([]types.Field(nil), fields...))
	if d.norm == nil {
		return r, raw{}
	}
	return r, raw{size, types.HashRecord(fields, hashes)}
}

// promote wraps a freshly inferred record into a single-case variants
// type when a discriminator was captured: a keyed candidate wins over
// the wrapper shape. The canonical representative is returned when an
// interner is installed (children are already canonical, so this is a
// shallow probe); in normal mode the raw size and hash become those of
// the single-case variants around the raw record.
func (d *Decoder) promote(r *types.Record, m raw, keyed bool, tagKey, tagVal string, wrapper bool) (types.Type, raw) {
	var t types.Type
	switch {
	case keyed:
		t = d.pr.Promote(r, tagKey, tagVal)
	case wrapper:
		tagKey, tagVal = "", r.Fields()[0].Key
		t = d.pr.PromoteWrapper(r, tagVal)
	default:
		return r, m
	}
	switch {
	case d.tab != nil:
		return d.tab.Canon(t), raw{}
	case d.norm == nil:
		return t, raw{}
	default:
		return t, raw{m.size + 2, types.HashCase(tagKey, !keyed, tagVal, m.hash)}
	}
}

func (d *Decoder) inferArray(depth int) (types.Type, raw, error) {
	if d.obs != nil {
		d.obs.BeginArray()
	}
	elems := d.elemsAt(depth)
	hashes := d.hashesAt(depth)
	size := 1
	first := true
	for {
		tok, err := d.lex.Next()
		if err != nil {
			return nil, raw{}, err
		}
		if first && tok.Kind == jsontext.TokEndArray {
			if d.obs != nil {
				d.obs.EndArray(0)
			}
			if d.norm != nil {
				return d.normEmpty, emptyTupleRaw, nil
			}
			// EmptyTuple is one shared node, pre-seeded in every table, so
			// both other modes return the canonical representative.
			return types.EmptyTuple, raw{}, nil
		}
		if !first {
			switch tok.Kind {
			case jsontext.TokEndArray:
				if d.obs != nil {
					d.obs.EndArray(len(elems))
				}
				d.elemScratch[depth] = elems
				switch {
				case d.tab != nil:
					return d.tab.InternTuple(elems), raw{}, nil
				case d.norm != nil:
					d.hashScratch[depth] = hashes
					return d.norm.NormalArray(elems), raw{size, types.HashTuple(hashes)}, nil
				default:
					return types.MustTuple(elems...), raw{}, nil
				}
			case jsontext.TokComma:
				tok, err = d.lex.Next()
				if err != nil {
					return nil, raw{}, err
				}
			default:
				return nil, raw{}, d.syntaxErr(tok.Offset, "expected ',' or ']' in array, got %s", tok.Kind)
			}
		}
		first = false
		et, em, err := d.inferValue(tok, depth+1)
		if err != nil {
			return nil, raw{}, err
		}
		elems = append(elems, et)
		if d.norm != nil {
			hashes = append(hashes, em.hash)
			size += em.size
		}
	}
}

// InferAll infers one type per top-level JSON value in data.
func InferAll(data []byte) ([]types.Type, error) {
	return InferAllObserved(data, nil)
}

// InferAllObserved is InferAll with value events reported to obs (when
// non-nil) — the enrichment-enabled map stage.
func InferAllObserved(data []byte, obs Observer) ([]types.Type, error) {
	return InferAllWith(data, obs, nil)
}

// InferAllWith is InferAllObserved with a tagged-union promoter (both
// may be nil) — the fully optioned map stage.
func InferAllWith(data []byte, obs Observer, pr Promoter) ([]types.Type, error) {
	var ts []types.Type
	d := NewBytesDecoder(data)
	defer d.Release()
	if obs != nil {
		d.SetObserver(obs)
	}
	if pr != nil {
		d.SetPromoter(pr)
	}
	for {
		t, err := d.Next()
		if err == io.EOF {
			return ts, nil
		}
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
}
