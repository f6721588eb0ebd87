package jsontext

import (
	"bufio"
	"bytes"
	"io"
	"sync"

	"repro/internal/value"
)

// ScanValues parses every top-level JSON value in r and calls fn for
// each. It stops and returns the first error from parsing or from fn.
func ScanValues(r io.Reader, fn func(value.Value) error) error {
	p := NewParser(r)
	for {
		v, err := p.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(v); err != nil {
			return err
		}
	}
}

// ParseAll parses every top-level JSON value in data.
func ParseAll(data []byte) ([]value.Value, error) {
	var vs []value.Value
	err := ScanValues(bytes.NewReader(data), func(v value.Value) error {
		vs = append(vs, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vs, nil
}

// SplitLines splits an NDJSON byte buffer into at most n chunks of
// roughly equal byte size, cutting only at value-safe line boundaries
// so each chunk holds whole JSON values. A newline is value-safe when
// it lies outside every string literal and at bracket depth zero —
// pretty-printed values spanning several lines stay in one chunk, so
// splitting is invisible to the parser (the end-to-end fuzz oracle at
// the repository root checks exactly this). Fewer than n chunks are
// returned when the data has fewer safe boundaries. This is the
// partitioning step of the map phase: chunks can be parsed
// independently and in parallel.
func SplitLines(data []byte, n int) [][]byte {
	if n <= 1 || len(data) == 0 {
		if len(data) == 0 {
			return nil
		}
		return [][]byte{data}
	}
	var chunks [][]byte
	target := len(data)/n + 1
	start := 0
	// One linear scan tracks just enough lexical state (string
	// literals with escapes, bracket depth) to recognize safe
	// newlines; on malformed input the state degrades toward "never
	// split", which keeps acceptance identical to a sequential parse.
	depth := 0
	inStr, esc := false, false
	for i := 0; i < len(data) && len(chunks) < n-1; i++ {
		c := data[i]
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '[', '{':
			depth++
		case ']', '}':
			if depth > 0 {
				depth--
			}
		case '\n':
			if depth == 0 && i+1-start >= target && i+1 < len(data) {
				chunks = append(chunks, data[start:i+1])
				start = i + 1
			}
		}
	}
	if start < len(data) {
		chunks = append(chunks, data[start:])
	}
	return chunks
}

// A ChunkPool recycles chunk buffers between a feed and the release
// hook of the pipeline that consumed them, so a long streaming run
// allocates a handful of chunk-sized buffers total instead of one per
// chunk. The zero value is ready to use; a nil *ChunkPool degrades to
// plain allocation (Get allocates fresh, Put drops), so pooled code
// paths need no nil branches. Buffers must only be Put back once their
// consumer is finished with them — with the map-reduce engine that is
// its Release hook, which fires after a chunk's final retry attempt.
type ChunkPool struct{ pool sync.Pool }

// Get returns an empty buffer with at least capHint capacity.
func (p *ChunkPool) Get(capHint int) []byte {
	if p != nil {
		if v := p.pool.Get(); v != nil {
			if b := *(v.(*[]byte)); cap(b) >= capHint {
				return b[:0]
			}
			// Undersized (the pool outlived a chunkBytes change): drop it
			// and let the allocator supply the right size.
		}
	}
	return make([]byte, 0, capHint)
}

// Put returns a buffer to the pool for a later Get. The caller must
// not touch b afterwards.
func (p *ChunkPool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	b = b[:0]
	p.pool.Put(&b)
}

// ChunkLines reads NDJSON from r and calls emit with line-aligned chunks
// of roughly chunkBytes bytes (the final chunk may be smaller, and a
// single line longer than chunkBytes becomes its own chunk). Each chunk
// is a fresh allocation that emit may retain. This is the streaming
// partitioner for inputs too large to hold in memory: chunks flow to
// parallel workers while the file is still being read.
func ChunkLines(r io.Reader, chunkBytes int, emit func([]byte) error) error {
	return ChunkLinesPooled(r, chunkBytes, nil, emit)
}

// ChunkLinesPooled is ChunkLines drawing chunk buffers from pool: each
// emitted chunk is handed to emit without copying, and ownership
// transfers with it — the consumer returns the buffer with pool.Put
// when (and only when) it is done, typically through the pipeline's
// release hook so retried map attempts never see a recycled buffer.
// With a nil pool every chunk is simply a fresh allocation.
func ChunkLinesPooled(r io.Reader, chunkBytes int, pool *ChunkPool, emit func([]byte) error) error {
	if chunkBytes <= 0 {
		chunkBytes = 4 << 20
	}
	br := bufio.NewReaderSize(r, 256<<10)
	buf := pool.Get(chunkBytes + 4096)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		chunk := buf
		buf = pool.Get(chunkBytes + 4096)
		return emit(chunk)
	}
	for {
		line, err := br.ReadBytes('\n')
		buf = append(buf, line...)
		if len(buf) >= chunkBytes {
			if ferr := flush(); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			if ferr := flush(); ferr != nil {
				return ferr
			}
			pool.Put(buf) // the spare buffer flush pre-fetched
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// CountLines reports the number of non-empty lines in an NDJSON buffer,
// i.e. the number of records without parsing them.
func CountLines(data []byte) int {
	n := 0
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		var line []byte
		if i < 0 {
			line, data = data, nil
		} else {
			line, data = data[:i], data[i+1:]
		}
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
	return n
}
