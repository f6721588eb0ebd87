package jsoninference_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	jsi "repro"
)

// TestInferProfileMatchesWrappers pins that InferProfile returns the
// same profile over every Source kind holding the same records, and
// that its Stats report the records and bytes profiled.
func TestInferProfileMatchesWrappers(t *testing.T) {
	path, data := manyChunks(t, 200)
	ctx := context.Background()

	fromBytes, st, err := jsi.InferProfile(ctx, jsi.FromBytes(data), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != fromBytes.Records() || st.Records == 0 {
		t.Errorf("Stats.Records = %d, Profile.Records = %d", st.Records, fromBytes.Records())
	}
	if st.Bytes != int64(len(data)) {
		t.Errorf("Stats.Bytes = %d, want %d", st.Bytes, len(data))
	}

	reader, _, err := jsi.InferProfile(ctx, jsi.FromReader(bytes.NewReader(data)), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reader.String() != fromBytes.String() {
		t.Error("InferProfile(FromReader) diverges from InferProfile(FromBytes)")
	}

	fromFile, _, err := jsi.InferProfile(ctx, jsi.FromFile(path), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != fromBytes.String() {
		t.Error("InferProfile(FromFile) diverges from InferProfile(FromBytes)")
	}

	chunked, _, err := jsi.InferProfile(ctx, jsi.FromChunkedReader(bytes.NewReader(data)), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if chunked.String() != fromBytes.String() {
		t.Error("InferProfile(FromChunkedReader) diverges from InferProfile(FromBytes)")
	}
}

// TestInferProfileSchemaAgreesWithInfer: the schema a profile implies
// equals the schema the inference pipeline produces for the same data.
func TestInferProfileSchemaAgreesWithInfer(t *testing.T) {
	_, data := manyChunks(t, 150)
	ctx := context.Background()
	p, _, err := jsi.InferProfile(ctx, jsi.FromBytes(data), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema, _, err := jsi.Infer(ctx, jsi.FromBytes(data), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Schema().String(), schema.String(); got != want {
		t.Errorf("profile schema = %s, inferred = %s", got, want)
	}
}

func TestInferProfileCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := jsi.FromReader(endlessReader{record: []byte(`{"a":1}` + "\n")})
	if _, _, err := jsi.InferProfile(ctx, src, jsi.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestInferProfileValidation(t *testing.T) {
	ctx := context.Background()
	if _, _, err := jsi.InferProfile(ctx, nil, jsi.Options{}); !errors.Is(err, jsi.ErrInvalidOptions) {
		t.Errorf("nil source: err = %v, want ErrInvalidOptions", err)
	}
	if _, _, err := jsi.InferProfile(ctx, jsi.FromBytes(nil), jsi.Options{Workers: -1}); !errors.Is(err, jsi.ErrInvalidOptions) {
		t.Errorf("bad options: err = %v, want ErrInvalidOptions", err)
	}
	if _, _, err := jsi.InferProfile(ctx, jsi.FromBytes([]byte("{oops")), jsi.Options{}); err == nil {
		t.Error("malformed input: err = nil")
	}
	if _, _, err := jsi.InferProfile(ctx, jsi.FromFile("/does/not/exist"), jsi.Options{}); err == nil {
		t.Error("missing file: err = nil")
	} else {
		var fe *jsi.FeedError
		if !errors.As(err, &fe) {
			t.Errorf("missing file: err = %v, want *FeedError", err)
		}
	}
}
