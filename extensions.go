package jsoninference

import (
	"context"
	"fmt"

	"repro/internal/abstraction"
	"repro/internal/jsontext"
	"repro/internal/pathquery"
	"repro/internal/profile"
	"repro/internal/value"
)

// This file exposes the extensions the paper's conclusion proposes
// (Section 7): statistics-enriched schemas, precision-preserving array
// inference, and the schema-driven path analysis / projection the
// introduction motivates.

// Profile is a statistics-enriched schema: the same structure as a
// Schema, annotated at every position with occurrence shares, field
// presence percentages, numeric ranges, string lengths and array
// lengths. Profiles merge like schemas (commutatively, associatively),
// so they support the same incremental maintenance.
type Profile struct {
	p profile.Profile
}

// InferProfile runs statistics-enriched inference over a Source — the
// profile counterpart of Infer, and like it the only profile entry
// point that accepts a context and therefore supports cancellation and
// deadlines (taking effect between records). Any Source kind works:
// bytes, readers (plain or chunked), files. Values are decoded and
// profiled sequentially with constant memory — a profile accumulates
// every value's statistics, so there is no parallel map phase to
// distribute. The returned Stats carries the feed-side numbers
// (Records, Bytes); the type-level fields stay zero.
//
// Profiles merge commutatively and associatively (Profile.Merge), so
// partitioned datasets can be profiled partition by partition and
// merged, exactly like schemas.
func InferProfile(ctx context.Context, src Source, opts Options) (*Profile, Stats, error) {
	if err := opts.validate(); err != nil {
		return nil, Stats{}, err
	}
	if src == nil {
		return nil, Stats{}, fmt.Errorf("%w: nil Source", ErrInvalidOptions)
	}
	var out Profile
	n, err := src.scan(ctx, opts.env(), func(v value.Value) error {
		out.p.Add(v)
		return nil
	})
	if err != nil {
		return nil, Stats{}, fmt.Errorf("jsoninference: %w", err)
	}
	return &out, Stats{Records: out.p.Count, Bytes: n}, nil
}

// Records reports the number of values profiled.
func (p *Profile) Records() int64 { return p.p.Count }

// Merge folds another profile into this one; like Schema.Fuse, the
// result describes the concatenated collections.
func (p *Profile) Merge(other *Profile) {
	if other != nil {
		p.p.Merge(&other.p)
	}
}

// Schema returns the plain schema the profile implies. It equals the
// schema the inference pipeline produces for the same data.
func (p *Profile) Schema() *Schema { return newSchema(p.p.Type()) }

// String renders the annotated schema for human consumption.
func (p *Profile) String() string { return p.p.Render() }

// MarshalJSON serializes the profile so statistics can be stored next to
// schemas and merged across processes.
func (p *Profile) MarshalJSON() ([]byte, error) { return p.p.MarshalJSON() }

// UnmarshalProfileJSON decodes a profile encoded with MarshalJSON.
func UnmarshalProfileJSON(data []byte) (*Profile, error) {
	var out Profile
	if err := out.p.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return &out, nil
}

// AbstractKeys rewrites dictionary-like record types — many keys, similar
// value types, the Wikidata ids-as-keys pathology of the paper's
// Section 6.2 — into abstracted map types {*: T}. minKeys is the minimum
// field count to consider (0 = default 16). The result is a sound
// widening: every value of the original schema conforms to the
// abstracted one, and fusing further records into it refines the element
// type instead of re-growing the key explosion.
func (s *Schema) AbstractKeys(minKeys int) *Schema {
	return newSchema(abstraction.Abstract(s.t, abstraction.Options{MinKeys: minKeys}))
}

// PathMatch is one concrete, typed path through a schema, produced by
// Schema.ExpandPath.
type PathMatch struct {
	// Path is the concrete path with wildcards resolved, e.g.
	// "$.entities.hashtags[*].text".
	Path string
	// Type is the rendered type of the values the path selects.
	Type string
	// CanMiss reports whether a conforming value may lack the path
	// (optional field, union branch, or possibly-empty array on the
	// way).
	CanMiss bool
}

// ExpandPath resolves a JSONPath-like expression ($, .key, ["key"], .*,
// [*]) against the schema: wildcards expand to the concrete paths the
// data can contain, each with its static type. An empty result proves
// the path can never match — the compile-time error detection the
// paper's introduction motivates.
func (s *Schema) ExpandPath(path string) ([]PathMatch, error) {
	p, err := pathquery.Parse(path)
	if err != nil {
		return nil, err
	}
	ms := pathquery.Expand(s.t, p)
	out := make([]PathMatch, len(ms))
	for i, m := range ms {
		out[i] = PathMatch{Path: m.Path.String(), Type: m.Type.String(), CanMiss: m.CanMiss}
	}
	return out, nil
}

// Projection is a compiled set of paths used to load only the fragments
// of each record a query needs (the schema-based projection optimization
// of Section 1).
type Projection struct {
	mask *pathquery.Mask
}

// NewProjection compiles a projection from path expressions.
func NewProjection(paths ...string) (*Projection, error) {
	parsed := make([]pathquery.Path, len(paths))
	for i, src := range paths {
		p, err := pathquery.Parse(src)
		if err != nil {
			return nil, err
		}
		parsed[i] = p
	}
	return &Projection{mask: pathquery.NewMask(parsed...)}, nil
}

// ApplyJSON projects one JSON value: the result contains only the
// fragments the projection's paths can select, rendered as canonical
// JSON.
func (p *Projection) ApplyJSON(data []byte) ([]byte, error) {
	v, err := jsontext.ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("jsoninference: %w", err)
	}
	return value.AppendJSON(nil, p.mask.Apply(v)), nil
}
