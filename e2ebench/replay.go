package main

import (
	"fmt"
	"io"

	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/stats"
	"repro/internal/types"
)

// layerReplay re-runs the chunked inference path on one goroutine, in
// pipeline order, by calling each layer's public function directly:
//
//	jsontext.ChunkLinesPooled → infer.InferAllWith → stats.Summary.Add
//	→ fusion Simplify → pairwise fusion Fuse → cross-chunk Fuse → Finalize
//
// It goes through neither internal/pipeline nor internal/mapreduce, so
// its result is an independent reference for the schema the CLI and
// schemad produce. With a nil tracer it records nothing and does no
// bookkeeping beyond the calls themselves.
type layerReplay struct {
	fz fusion.Options
	pr infer.Promoter
	tr *Tracer

	sum     stats.Summary
	acc     types.Type // nil until the first chunk
	records int64

	// Fuse-call accounting (traced replays only).
	fuseCalls int64
	unchanged int64 // result types.Equal to the left operand
	reused    int64 // result pointer-identical to an operand
}

func newLayerReplay(fz fusion.Options, tr *Tracer) *layerReplay {
	r := &layerReplay{fz: fz, tr: tr}
	// Keep a nil interface (not a typed nil) when the strategy has no
	// tagged-union promoter, as the pipeline does.
	if pr := fz.Promoter(); pr != nil {
		r.pr = pr
	}
	return r
}

// feed replays one input stream: a file for the batch workloads, one
// ingest body for schemad.
func (r *layerReplay) feed(rd io.Reader) error {
	pool := &jsontext.ChunkPool{}
	sp := r.tr.Begin("jsontext.split")
	err := jsontext.ChunkLinesPooled(rd, 0, pool, func(chunk []byte) error {
		err := r.chunk(chunk)
		pool.Put(chunk)
		return err
	})
	r.tr.End(sp)
	return err
}

func (r *layerReplay) chunk(chunk []byte) error {
	tr := r.tr
	cs := tr.Begin("replay.chunk")
	defer tr.End(cs)

	sp := tr.BeginAllocs("infer.decode")
	ts, err := infer.InferAllWith(chunk, nil, r.pr)
	tr.End(sp)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	r.records += int64(len(ts))

	sp = tr.Begin("stats.summary")
	for _, t := range ts {
		r.sum.Add(t)
	}
	tr.End(sp)

	sp = tr.BeginAllocs("fusion.simplify")
	for i, t := range ts {
		ts[i] = r.fz.Simplify(t)
	}
	tr.End(sp)

	// The per-call fusion.fuse spans sit inside this one; its own self
	// time is the harness's fuse-result accounting, and it carries the
	// allocation count of the fuse calls beneath it.
	sp = tr.BeginAllocs("fusion.tree")
	fused := treeFuse(ts, r.fuse)
	tr.End(sp)

	sp = tr.Begin("pipeline.combine")
	if r.acc == nil {
		r.acc = fused
	} else {
		r.acc = r.fz.Fuse(r.acc, fused)
	}
	tr.End(sp)
	return nil
}

// fuse is one chunk-local fusion call, timed and classified when
// tracing.
func (r *layerReplay) fuse(a, b types.Type) types.Type {
	if r.tr == nil {
		return r.fz.Fuse(a, b)
	}
	sp := r.tr.Begin("fusion.fuse")
	out := r.fz.Fuse(a, b)
	r.tr.End(sp)
	r.fuseCalls++
	if out == a || out == b {
		r.reused++
	}
	if types.Equal(out, a) {
		r.unchanged++
	}
	return out
}

// result finalizes the replayed schema, as the pipeline's fold does.
func (r *layerReplay) result() types.Type {
	sp := r.tr.Begin("pipeline.combine")
	defer r.tr.End(sp)
	if r.acc == nil {
		return types.Empty
	}
	return r.fz.Finalize(r.acc)
}

// treeFuse reduces ts pairwise, level by level — the reduce shape of
// the pipeline's chunk map stage. ts is overwritten.
func treeFuse(ts []types.Type, fuse func(a, b types.Type) types.Type) types.Type {
	if len(ts) == 0 {
		return types.Empty
	}
	n := len(ts)
	for n > 1 {
		k := 0
		for i := 0; i+1 < n; i += 2 {
			ts[k] = fuse(ts[i], ts[i+1])
			k++
		}
		if n%2 == 1 {
			ts[k] = ts[n-1]
			k++
		}
		n = k
	}
	return ts[0]
}

// lexPass drains every chunk of rd through the lexer alone, one span
// per chunk: the lexing share of decode, measured on its own.
func lexPass(rd io.Reader, tr *Tracer) error {
	pool := &jsontext.ChunkPool{}
	return jsontext.ChunkLinesPooled(rd, 0, pool, func(chunk []byte) error {
		sp := tr.BeginAllocs("jsontext.lex")
		err := drainLexer(chunk)
		tr.End(sp)
		pool.Put(chunk)
		return err
	})
}

func drainLexer(chunk []byte) error {
	lx := jsontext.AcquireLexerBytes(chunk)
	defer lx.Release()
	for {
		tok, err := lx.Next()
		if err != nil {
			return fmt.Errorf("lex: %w", err)
		}
		if tok.Kind == jsontext.TokEOF {
			return nil
		}
	}
}
