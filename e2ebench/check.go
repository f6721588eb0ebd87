package main

import (
	"bytes"
	"fmt"
)

// sameSchema reports whether got, a schema in codec form as a CLI
// pass or schemad returned it, is byte-identical to the reference
// want. Trailing newlines are not part of the schema. The error names
// the first differing byte with some context on both sides.
func sameSchema(got, want []byte) error {
	got = bytes.TrimRight(got, "\r\n")
	want = bytes.TrimRight(want, "\r\n")
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("schema differs from the reference at byte %d of %d (reference has %d): got …%s…, want …%s…",
		i, len(got), len(want), excerpt(got, i), excerpt(want, i))
}

// excerpt returns up to 40 bytes of b around offset i.
func excerpt(b []byte, i int) string {
	lo, hi := i-20, i+20
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return string(b[lo:hi])
}
