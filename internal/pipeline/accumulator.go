package pipeline

import (
	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/intern"
	"repro/internal/types"
)

// An Accumulator is one partial result of the reduce phase: the monoid
// the engine folds over. The paper's distribution argument (Theorems
// 5.4 and 5.5) is exactly that this fold is a commutative monoid —
// Merge is associative and commutative, the empty accumulator (and nil,
// see Combine) is its identity — so chunking, scheduling and worker
// count are invisible in the Fold.
//
// There are two implementations: the chunked payload of Run (autoAcc:
// a multiset of distinct interned types plus a tally of the records a
// chunk typed without interning) and the constant-memory tally of
// RunStream (plainAcc). Both satisfy the same laws, property-tested in
// accumulator_test.go the same way Fuse and obs snapshots are.
type Accumulator interface {
	// Merge absorbs other into the receiver. Associative and
	// commutative; other must come from the same Env (same fusion
	// policy and the same intern table).
	Merge(other Accumulator)
	// Fold finalizes the accumulator into a Result. It does not consume
	// the accumulator, but callers treat it as the last step.
	Fold() Result
}

// Result is a folded Accumulator: the fused type and the type-level
// statistics of Tables 2-5. The byte-level numbers (input bytes,
// retries, quarantined chunks) belong to the feed side and are filled
// in by the caller.
type Result struct {
	// Fused is the final schema (types.Empty when nothing was added).
	Fused types.Type
	// Records is the number of values typed.
	Records int64
	// DistinctTypes is the number of distinct types seen: exact on the
	// chunked payload, zero on the streaming one, which cannot afford
	// the bookkeeping.
	DistinctTypes int
	// DistinctSizeSum is the total size of the distinct types, each
	// counted once — the naive "union of all distinct types" schema the
	// succinctness ablation compares against. Zero on the streaming
	// payload.
	DistinctSizeSum int64
	// MinTypeSize, MaxTypeSize and AvgTypeSize describe the per-value
	// type sizes.
	MinTypeSize, MaxTypeSize int
	AvgTypeSize              float64
	// Enrichment is the combined enrichment lattice of the run; nil
	// with Env.Enrich unset (or when nothing was fed).
	Enrichment *enrich.Lattice
}

// Combine merges two accumulators, treating nil as the identity — the
// shape the map-reduce engine's zero value takes. Returns the merged
// accumulator (one of its arguments).
func Combine(a, b Accumulator) Accumulator {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	a.Merge(b)
	return a
}

// Fold finalizes an accumulator, treating nil (no input at all) as the
// empty Result.
func Fold(acc Accumulator) Result {
	if acc == nil {
		return Result{Fused: types.Empty}
	}
	return acc.Fold()
}

// NewStreamAcc returns the empty constant-memory accumulator of the
// sequential streaming driver: no distinct-type bookkeeping
// (Result.DistinctTypes stays zero), so memory stays constant.
func (e *Env) NewStreamAcc() *plainAcc {
	return &plainAcc{fz: e.Fusion, fused: types.Empty}
}

// sizeTally is the per-record type-size bookkeeping both payloads
// share: min, max and an int64 size sum, which combine exactly, so the
// average is one division and bit-identical under any merge order
// (sizes and counts stay far below 2^53).
type sizeTally struct {
	records  int64
	sumSize  int64
	min, max int
}

// add counts n records of the given type size.
func (s *sizeTally) add(size int, n int64) {
	if s.records == 0 || size < s.min {
		s.min = size
	}
	if size > s.max {
		s.max = size
	}
	s.records += n
	s.sumSize += int64(size) * n
}

func (s *sizeTally) merge(o sizeTally) {
	if o.records == 0 {
		return
	}
	if s.records == 0 || o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.records += o.records
	s.sumSize += o.sumSize
}

// result fills the size statistics of r.
func (s sizeTally) result(r *Result) {
	r.Records = s.records
	if s.records > 0 {
		r.MinTypeSize, r.MaxTypeSize = s.min, s.max
		r.AvgTypeSize = float64(s.sumSize) / float64(s.records)
	}
}

// plainAcc is the streaming payload: the size tally plus the running
// fused type, so memory stays constant.
type plainAcc struct {
	fz fusion.Options
	// lat is the run's enrichment lattice; nil with enrichment off.
	lat   *enrich.Lattice
	sizes sizeTally
	fused types.Type
}

// Add types one record into the accumulator: t is the record's type in
// the fusion policy's normal form (what a normal-mode decoder returns)
// and size the Size of its raw phase-one type.
func (a *plainAcc) Add(t types.Type, size int) {
	a.sizes.add(size, 1)
	a.fused = a.fz.Fuse(a.fused, t)
}

func (a *plainAcc) Merge(other Accumulator) {
	b := other.(*plainAcc)
	a.sizes.merge(b.sizes)
	a.fused = a.fz.Fuse(a.fused, b.fused)
	a.lat = mergeLattices(a.lat, b.lat)
}

func (a *plainAcc) Fold() Result {
	r := Result{Fused: a.fz.Finalize(a.fused), Enrichment: a.lat}
	a.sizes.result(&r)
	return r
}

// autoAcc is the chunked payload. Records a chunk typed through the
// interner live in the multiset (exact distinct counts, one fuse per
// distinct type); records typed after the chunk stopped interning live in a
// plain size tally plus their structural hashes. Any mix of the two
// folds to the same bytes: the size tallies combine exactly, and the
// distinct count is the union of the structural hashes of both
// portions.
type autoAcc struct {
	dd *Dedup
	fz fusion.Options
	ms *intern.Multiset
	// deg tallies the records of degraded (non-interned) portions, and
	// degTypes maps each of their structural hashes to its type size.
	deg      sizeTally
	degTypes map[uint64]int
	fused    types.Type
	lat      *enrich.Lattice
}

// newAutoAcc returns the empty chunked accumulator of a run.
func newAutoAcc(dd *Dedup, fz fusion.Options) *autoAcc {
	return &autoAcc{dd: dd, fz: fz, ms: intern.NewMultiset(), fused: types.Empty}
}

// addDegraded counts one record typed without interning, from the Size
// and types.Hash of its raw type.
func (a *autoAcc) addDegraded(size int, hash uint64) {
	a.deg.add(size, 1)
	if a.degTypes == nil {
		a.degTypes = make(map[uint64]int, 64)
	}
	a.degTypes[hash] = size
}

func (a *autoAcc) Merge(other Accumulator) {
	b := other.(*autoAcc)
	a.ms.Merge(b.ms)
	a.deg.merge(b.deg)
	if len(b.degTypes) > 0 && a.degTypes == nil {
		a.degTypes = make(map[uint64]int, len(b.degTypes))
	}
	for h, size := range b.degTypes {
		a.degTypes[h] = size
	}
	a.fused = a.fz.Fuse(a.fused, b.fused)
	a.lat = mergeLattices(a.lat, b.lat)
	a.recheck()
}

// recheck is the combine-boundary half of the adaptive choice: once
// enough records have merged, the multiset cardinality versus its
// record total re-tests the degrade predicate (with the node-growth
// evidence gathered while sampling), and a degraded run whose plain
// portion turns repetitive is sent back to sampling. Purely a shared
// cost hint — it never changes what this accumulator folds to.
func (a *autoAcc) recheck() {
	dd := a.dd
	if n := a.ms.Total(); n >= int64(dd.sample) {
		if float64(a.ms.Len()) >= dd.threshold*float64(n) {
			if dd.sampledGrowth() >= dd.nodeGrowth {
				dd.hint.Store(hintDegrade)
			}
		} else {
			dd.hint.Store(hintDedup)
		}
	}
	if a.deg.records >= int64(dd.sample) &&
		float64(len(a.degTypes)) < dd.threshold*float64(a.deg.records) {
		dd.hint.Store(hintSample)
	}
}

// Fold combines both portions into the run's statistics.
func (a *autoAcc) Fold() Result {
	r := Result{Fused: a.fz.Finalize(a.fused), Enrichment: a.lat}
	sizes := a.deg
	distinct := make(map[uint64]int, a.ms.Len()+len(a.degTypes))
	for h, size := range a.degTypes {
		distinct[h] = size
	}
	for _, el := range a.ms.Elems() {
		sizes.add(el.Size, el.Count)
		distinct[types.Hash(el.Type)] = el.Size
	}
	sizes.result(&r)
	r.DistinctTypes = len(distinct)
	for _, size := range distinct {
		r.DistinctSizeSum += int64(size)
	}
	return r
}

// mergeLattices combines the enrichment lattices of two accumulators
// in place on a, treating nil as the identity. Within one run either
// both sides carry a lattice or neither does; the nil cases keep the
// merge total for hand-built accumulators in tests.
func mergeLattices(a, b *enrich.Lattice) *enrich.Lattice {
	if a == nil {
		return b
	}
	a.Merge(b)
	return a
}
