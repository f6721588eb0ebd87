package jsoninference_test

// Golden table: each row maps an NDJSON input to the printed schema
// under the four fusion policies, and every Source kind must print
// exactly that. The expected strings are pinned verbatim, so any change
// to the inference path — which map stage types a chunk, how partial
// results combine, how files merge — that alters a schema shows up as
// a one-line diff here.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	jsi "repro"
)

// goldenPolicies are the four fusion policies every row is printed
// under, in the column order of goldenRow.want.
var goldenPolicies = []struct {
	name string
	opts jsi.Options
}{
	{"paper", jsi.Options{}},
	{"tuples", jsi.Options{PreserveTupleArrays: true}},
	{"tagged", jsi.Options{TaggedUnions: true}},
	{"tagged+tuples", jsi.Options{TaggedUnions: true, PreserveTupleArrays: true}},
}

type goldenRow struct {
	name  string
	input string
	// want holds the printed schema under paper, tuples, tagged and
	// tagged+tuples.
	want [4]string
}

// distinctBlock returns n records that are pairwise distinct types and
// share almost no subtrees: each record nests three records whose key
// sets are different subsets of twelve keys, so nearly every interned
// node is new. n must stay below 4096.
func distinctBlock(n int) string {
	var b strings.Builder
	subset := func(prefix string, bits int) string {
		var fs []string
		for k := 0; k < 12; k++ {
			if bits&(1<<k) != 0 {
				fs = append(fs, fmt.Sprintf("%q:%d", fmt.Sprintf("%s%d", prefix, k), k))
			}
		}
		return "{" + strings.Join(fs, ",") + "}"
	}
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "{\"a\":%s,\"b\":%s,\"c\":%s}\n",
			subset("a", i), subset("b", (i*7)%4096), subset("c", (i*13)%4096))
	}
	return b.String()
}

// repetitiveBlock returns n records cycling through three shapes.
func repetitiveBlock(n int) string {
	shapes := []string{
		`{"id":%d,"user":{"name":"u","tags":["x","y"]}}`,
		`{"id":%d,"user":{"name":"v"},"geo":null}`,
		`{"id":%d,"user":{"name":"w","tags":[]},"geo":[1.5,2.5]}`,
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, shapes[i%len(shapes)]+"\n", i)
	}
	return b.String()
}

var goldenRows = []goldenRow{
	{
		// The running example of the paper's Figures 5 and 6: three
		// records whose fusion makes C optional, D's array mixed and E
		// an optional nested record.
		name: "paper-figures-5-6",
		input: `{"A":123,"B":"The Pursuit","C":false,"D":["abc","cde","fgh"]}
{"A":45,"B":"A Walk","C":true,"D":[8,"abc"]}
{"A":null,"B":"Some Day","D":[],"E":{"F":12,"G":"x"}}
`,
		want: [4]string{
			"{A: Null + Num, B: Str, C: Bool?, D: [(Num + Str)*], E: {F: Num, G: Str}?}",
			"{A: Null + Num, B: Str, C: Bool?, D: [(Num + Str)*], E: {F: Num, G: Str}?}",
			"{A: Null + Num, B: Str, C: Bool?, D: [(Num + Str)*], E: {F: Num, G: Str}?}",
			"{A: Null + Num, B: Str, C: Bool?, D: [(Num + Str)*], E: {F: Num, G: Str}?}",
		},
	},
	{
		name: "scalars",
		input: `1
"s"
null
true
2.5
`,
		want: [4]string{
			"Null + Bool + Num + Str",
			"Null + Bool + Num + Str",
			"Null + Bool + Num + Str",
			"Null + Bool + Num + Str",
		},
	},
	{
		name: "fixed-length-arrays",
		input: `[1,"a",true]
[2,"b",false]
{"p":[1.5,2.5],"q":[[1],[2,3]]}
{"p":[3,4],"q":[[4],[5,6]]}
`,
		want: [4]string{
			"{p: [Num*], q: [[Num*]*]} + [(Bool + Num + Str)*]",
			"{p: [Num, Num], q: [[Num], [Num, Num]]} + [Num, Str, Bool]",
			"{p: [Num*], q: [[Num*]*]} + [(Bool + Num + Str)*]",
			"{p: [Num, Num], q: [[Num], [Num, Num]]} + [Num, Str, Bool]",
		},
	},
	{
		// Keyed discriminator: one tag per record shape.
		name: "discriminator-keyed",
		input: `{"type":"push","ref":"main","size":3}
{"type":"fork","forkee":{"id":1}}
{"type":"push","ref":"dev","size":1}
`,
		want: [4]string{
			"{forkee: {id: Num}?, ref: Str?, size: Num?, type: Str}",
			"{forkee: {id: Num}?, ref: Str?, size: Num?, type: Str}",
			"variants(type){fork: {forkee: {id: Num}, type: Str}, push: {ref: Str, size: Num, type: Str}}",
			"variants(type){fork: {forkee: {id: Num}, type: Str}, push: {ref: Str, size: Num, type: Str}}",
		},
	},
	{
		// Wrapper discriminator: the payload sits under a single
		// variant-named field.
		name: "discriminator-wrapper",
		input: `{"delete":{"status":{"id":1,"user_id":2}}}
{"scrub_geo":{"user_id":3,"up_to_status_id":4}}
{"delete":{"status":{"id":5,"user_id":6}}}
`,
		want: [4]string{
			"{delete: {status: {id: Num, user_id: Num}}?, scrub_geo: {up_to_status_id: Num, user_id: Num}?}",
			"{delete: {status: {id: Num, user_id: Num}}?, scrub_geo: {up_to_status_id: Num, user_id: Num}?}",
			"wrapper{delete: {delete: {status: {id: Num, user_id: Num}}}, scrub_geo: {scrub_geo: {up_to_status_id: Num, user_id: Num}}}",
			"wrapper{delete: {delete: {status: {id: Num, user_id: Num}}}, scrub_geo: {scrub_geo: {up_to_status_id: Num, user_id: Num}}}",
		},
	},
	{
		// Mixed discriminators: a hypothesis that fails collapses to
		// the record the paper policy infers.
		name: "discriminator-mixed",
		input: `{"type":"a","x":1}
{"event":"b","y":2}
{"kind":3,"z":"s"}
`,
		want: [4]string{
			"{event: Str?, kind: Num?, type: Str?, x: Num?, y: Num?, z: Str?}",
			"{event: Str?, kind: Num?, type: Str?, x: Num?, y: Num?, z: Str?}",
			"{event: Str?, kind: Num?, type: Str?, x: Num?, y: Num?, z: Str?}",
			"{event: Str?, kind: Num?, type: Str?, x: Num?, y: Num?, z: Str?}",
		},
	},
	{
		// Pairwise-distinct records, more than 256 per chunk wherever a
		// run cuts few chunks: the side of the per-chunk choice that
		// stops interning.
		name:  "all-distinct-block",
		input: distinctBlock(2000),
		want: [4]string{
			"{a: {a0: Num?, a1: Num?, a10: Num?, a2: Num?, a3: Num?, a4: Num?, a5: Num?, a6: Num?, a7: Num?, a8: Num?, a9: Num?}, b: {b0: Num?, b1: Num?, b10: Num?, b11: Num?, b2: Num?, b3: Num?, b4: Num?, b5: Num?, b6: Num?, b7: Num?, b8: Num?, b9: Num?}, c: {c0: Num?, c1: Num?, c10: Num?, c11: Num?, c2: Num?, c3: Num?, c4: Num?, c5: Num?, c6: Num?, c7: Num?, c8: Num?, c9: Num?}}",
			"{a: {a0: Num?, a1: Num?, a10: Num?, a2: Num?, a3: Num?, a4: Num?, a5: Num?, a6: Num?, a7: Num?, a8: Num?, a9: Num?}, b: {b0: Num?, b1: Num?, b10: Num?, b11: Num?, b2: Num?, b3: Num?, b4: Num?, b5: Num?, b6: Num?, b7: Num?, b8: Num?, b9: Num?}, c: {c0: Num?, c1: Num?, c10: Num?, c11: Num?, c2: Num?, c3: Num?, c4: Num?, c5: Num?, c6: Num?, c7: Num?, c8: Num?, c9: Num?}}",
			"{a: {a0: Num?, a1: Num?, a10: Num?, a2: Num?, a3: Num?, a4: Num?, a5: Num?, a6: Num?, a7: Num?, a8: Num?, a9: Num?}, b: {b0: Num?, b1: Num?, b10: Num?, b11: Num?, b2: Num?, b3: Num?, b4: Num?, b5: Num?, b6: Num?, b7: Num?, b8: Num?, b9: Num?}, c: {c0: Num?, c1: Num?, c10: Num?, c11: Num?, c2: Num?, c3: Num?, c4: Num?, c5: Num?, c6: Num?, c7: Num?, c8: Num?, c9: Num?}}",
			"{a: {a0: Num?, a1: Num?, a10: Num?, a2: Num?, a3: Num?, a4: Num?, a5: Num?, a6: Num?, a7: Num?, a8: Num?, a9: Num?}, b: {b0: Num?, b1: Num?, b10: Num?, b11: Num?, b2: Num?, b3: Num?, b4: Num?, b5: Num?, b6: Num?, b7: Num?, b8: Num?, b9: Num?}, c: {c0: Num?, c1: Num?, c10: Num?, c11: Num?, c2: Num?, c3: Num?, c4: Num?, c5: Num?, c6: Num?, c7: Num?, c8: Num?, c9: Num?}}",
		},
	},
	{
		// Three shapes repeated: the side of the adaptive choice that
		// keeps interning.
		name:  "repetitive-block",
		input: repetitiveBlock(600),
		want: [4]string{
			"{geo: (Null + [Num*])?, id: Num, user: {name: Str, tags: [Str*]?}}",
			"{geo: (Null + [Num, Num])?, id: Num, user: {name: Str, tags: [Str*]?}}",
			"{geo: (Null + [Num*])?, id: Num, user: {name: Str, tags: [Str*]?}}",
			"{geo: (Null + [Num, Num])?, id: Num, user: {name: Str, tags: [Str*]?}}",
		},
	},
}

// TestGoldenSchemas runs every row through every Source kind under
// every policy and compares the printed schema with the pinned string.
func TestGoldenSchemas(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	for ri, row := range goldenRows {
		data := []byte(row.input)
		// FromFiles gets the input split in two at a line boundary.
		cut := bytes.IndexByte(data[len(data)/2:], '\n') + len(data)/2 + 1
		first := filepath.Join(dir, fmt.Sprintf("%d-a.ndjson", ri))
		second := filepath.Join(dir, fmt.Sprintf("%d-b.ndjson", ri))
		if err := os.WriteFile(first, data[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(second, data[cut:], 0o600); err != nil {
			t.Fatal(err)
		}
		sources := []struct {
			label string
			src   func() jsi.Source
			opts  jsi.Options
		}{
			{"FromBytes/1", func() jsi.Source { return jsi.FromBytes(data) }, jsi.Options{Workers: 1}},
			{"FromBytes/4", func() jsi.Source { return jsi.FromBytes(data) }, jsi.Options{Workers: 4}},
			{"FromChunkedReader", func() jsi.Source { return jsi.FromChunkedReader(bytes.NewReader(data)) }, jsi.Options{Workers: 4, ChunkBytes: 1 << 10}},
			{"FromFiles", func() jsi.Source { return jsi.FromFiles(first, second) }, jsi.Options{Workers: 4}},
			{"FromReader", func() jsi.Source { return jsi.FromReader(bytes.NewReader(data)) }, jsi.Options{}},
		}
		for pi, pol := range goldenPolicies {
			for _, src := range sources {
				opts := src.opts
				opts.PreserveTupleArrays = pol.opts.PreserveTupleArrays
				opts.TaggedUnions = pol.opts.TaggedUnions
				s, _, err := jsi.Infer(ctx, src.src(), opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", row.name, pol.name, src.label, err)
				}
				if got := s.String(); got != row.want[pi] {
					t.Errorf("%s/%s/%s:\n got %s\nwant %s", row.name, pol.name, src.label, got, row.want[pi])
				}
			}
		}
	}
}
