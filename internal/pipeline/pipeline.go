// Package pipeline is the one inference engine behind every entry
// point of the repository: the public Source kinds (bytes, reader,
// file, files), the experiments harness and the CLI all run the same
// composable stages —
//
//	split → decode+infer map → combine (monoid) → fold
//
// over an Env that bundles what used to be five separately threaded
// parameters (fusion policy, worker count, failure policy, recorder,
// progress hook, dedup state). The map stage types each chunk into an
// Accumulator — the monoid the combine stage folds (see
// accumulator.go). A future backend — sharded, serving, remote — is a
// new feed plus (at most) a new Accumulator, not a sixth copy of the
// pipeline.
//
// Two drivers share the stages: Run distributes line-aligned chunks
// over the map-reduce engine (parallel, fault-tolerant), RunStream
// types one record at a time with constant memory (sequential). Both
// leave no goroutines behind on error or cancellation, which
// pipeline_test.go pins with mid-feed and mid-combine cancel tests.
package pipeline

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/intern"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/types"
)

// Env bundles the cross-cutting state of one inference run. Build it
// once per run and pass it to Run or RunStream; every field is
// read-only to the stages (the stagecapture analyzer in
// internal/analyze enforces that stages keep mutable state in their
// Accumulators, not in captured variables).
type Env struct {
	// Fusion is the run's fusion policy.
	Fusion fusion.Options
	// Workers bounds the map-phase parallelism of Run; values <= 0 mean
	// one worker per CPU (resolved by the map-reduce engine).
	Workers int
	// ChunkBytes is the chunk size of bounded-memory file feeds; zero
	// means the partitioner default (4 MiB).
	ChunkBytes int
	// Failure and Injector configure the map-reduce failure handling.
	Failure  mapreduce.FailurePolicy
	Injector mapreduce.FaultInjector
	// Rec receives pipeline metrics; nil records nothing.
	Rec obs.Recorder
	// Progress is called after each processed chunk (or every
	// ProgressEveryRecords records on the streaming path); nil reports
	// nothing.
	Progress func()
	// Dedup is the intern table and per-chunk interning choice of the
	// chunked map stage; Run requires it (build it with NewDedup),
	// RunStream ignores it.
	Dedup *Dedup
	// Enrich, when non-nil, computes the configured enrichment monoids
	// (internal/enrich) alongside structural inference in the same
	// pass: each map task observes its chunk into a fresh lattice
	// carried on the chunk's Accumulator, lattices merge with the
	// accumulators, and the folded Result carries the combined lattice.
	// Purely additive — the structural schema and statistics are
	// byte-identical with or without it.
	Enrich *enrich.Set
	// Phases, when non-nil, accumulates per-phase busy times (decode +
	// infer versus fuse) across workers — the experiments harness's
	// Table 6 measurements. Nil costs one branch per chunk.
	Phases *Phases
}

// Dedup is the shared machinery of the chunked map stage: the
// hash-consing table the decoders intern into and the shared state of
// the per-chunk interning choice. One value spans all chunks, workers
// and files of a single run.
//
// Interning pays on repetitive data and only costs on all-distinct
// data, so each map task picks per chunk: it samples the distinct-type
// ratio and the intern-table growth over the first records of its
// chunk and types the rest of the chunk without interning when
// hash-consing cannot pay for itself — an all-distinct window at or
// past the threshold that also allocates nodeGrowth or more new
// interned nodes per record. The decision is re-checked at every
// combine boundary against the merged multiset cardinality, and the
// outcome is shared across chunks through an atomic hint so settled
// runs stop sampling. Only the cost is adaptive: schemas and
// statistics are byte-identical whichever way a chunk goes (pinned by
// the differential and chaos suites).
type Dedup struct {
	Tab *intern.Table

	// sample is the number of records each chunk types through the
	// interner before deciding; threshold is the sampled distinct-type
	// ratio at or above which a chunk degrades (subject to the
	// nodeGrowth guard); nodeGrowth is the minimum new interned nodes
	// per sampled record for a degrade: high-ratio data whose subtrees
	// still dedup (shared nested shapes) keeps paying for hash-consing.
	// NewDedup sets the defaults below; only tests change them.
	sample     int
	threshold  float64
	nodeGrowth float64

	// hint is the shared adaptive decision: hintSample (zero) makes the
	// next chunk sample, hintDedup keeps chunks on the interning path,
	// hintDegrade sends whole chunks down the plain path. Cost-only:
	// with several workers the hint a chunk observes depends on timing,
	// but every mix of degraded and deduplicated chunks folds to the
	// same bytes.
	hint atomic.Int32
	// sampRecs/sampNodes accumulate the sampled record count and the
	// intern-table growth across chunks — the node-growth evidence the
	// combine-boundary re-check reuses.
	sampRecs  atomic.Int64
	sampNodes atomic.Int64
}

// Defaults of the per-chunk choice: sample size, degrade ratio, and
// the node-growth guard. The guard separates data that is all-distinct
// at the top level but shares subtrees (nytimes: ~0.7-1.4 new nodes per
// record, interning wins) from ids-as-keys data where nearly every node
// is fresh (wikidata: 3-7 new nodes per record, interning is pure
// overhead).
const (
	defaultDedupSample     = 256
	defaultDedupThreshold  = 0.9
	defaultDedupNodeGrowth = 2.5
)

// Shared hint values.
const (
	hintSample  int32 = 0
	hintDedup   int32 = 1
	hintDegrade int32 = -1
)

// NewDedup builds the intern table and interning choice for one run.
func NewDedup() *Dedup {
	return &Dedup{
		Tab:        intern.NewTable(),
		sample:     defaultDedupSample,
		threshold:  defaultDedupThreshold,
		nodeGrowth: defaultDedupNodeGrowth,
	}
}

// noteSample folds one chunk's sampling evidence (records typed through
// the interner and the intern-table growth seen while doing so) into
// the shared tallies.
func (dd *Dedup) noteSample(records, nodes int64) {
	if records <= 0 {
		return
	}
	dd.sampRecs.Add(records)
	if nodes > 0 {
		dd.sampNodes.Add(nodes)
	}
}

// sampledGrowth returns the observed new-interned-nodes-per-record rate
// across all samples so far, or 0 before any sample completes.
func (dd *Dedup) sampledGrowth() float64 {
	recs := dd.sampRecs.Load()
	if recs == 0 {
		return 0
	}
	return float64(dd.sampNodes.Load()) / float64(recs)
}

// decide evaluates the degrade predicate over a sampled window and
// publishes the outcome as the shared hint.
func (dd *Dedup) decide(distinct, records int64, growth float64) bool {
	degrade := float64(distinct) >= dd.threshold*float64(records) && growth >= dd.nodeGrowth
	if degrade {
		dd.hint.Store(hintDegrade)
	} else {
		dd.hint.Store(hintDedup)
	}
	return degrade
}

// Phases holds the per-phase busy-time tallies of a run, summed across
// workers (they exceed wall time on multi-worker runs).
type Phases struct {
	// InferNS is time spent parsing bytes and inferring per-record
	// types; FuseNS is time spent simplifying and fusing them
	// (chunk-local folds and cross-chunk combines).
	InferNS, FuseNS atomic.Int64
}

// A Feed produces the line-aligned chunks of one input through emit,
// in order, and may block. Emit fails once the pipeline stops (error
// or cancellation), so a feed that forwards emit's error — or simply
// stops, like SliceFeed — can never wedge the run. A non-nil return
// marks the *producer* as failed (an I/O error reading the input) and
// surfaces as a FeedError, distinguishable from decode errors.
type Feed func(emit func([]byte) error) error

// SliceFeed feeds an in-memory slice of chunks.
func SliceFeed(chunks [][]byte) Feed {
	return func(emit func([]byte) error) error {
		for _, chunk := range chunks {
			if err := emit(chunk); err != nil {
				return nil // the pipeline stopped; it carries the error
			}
		}
		return nil
	}
}

// A FeedError marks a failure of the input producer (the feed reading
// chunks) as opposed to the pipeline decoding them, so callers can
// word — and callers' callers programmatically distinguish — the two.
type FeedError struct{ Err error }

func (e *FeedError) Error() string { return e.Err.Error() }
func (e *FeedError) Unwrap() error { return e.Err }

// ProgressEveryRecords throttles Progress callbacks on the sequential
// streaming path, where "per chunk" has no natural meaning. It must be
// a multiple of StreamBatchRecords: the streaming driver only looks up
// from the decode loop at batch boundaries.
const ProgressEveryRecords = 1024

// StreamBatchRecords is the cancellation batch of the streaming
// driver: RunStream checks the context once per batch instead of once
// per record, which keeps the per-record loop to decode + accumulate
// (metrics stay per-record — a lone atomic add, and live /debug/vars
// readers must see an in-flight stream's records). Error positions are
// exact regardless ("record %d" comes from the per-record counter);
// only cancellation latency is quantized, to at most one batch.
const StreamBatchRecords = 64

// FeedBuffer is the capacity of the chunk channel between the feed and
// the map workers: a small batch of in-flight chunks lets the input
// reader run ahead of the workers (I/O overlapping compute) without
// unbounding memory. Cancellation semantics are unchanged — a feed
// blocked on a full buffer still unblocks through the emit error, and
// chunks parked in the buffer at abort are simply dropped.
const FeedBuffer = 4

// Run distributes the feed's chunks over the map-reduce engine: each
// chunk is typed and locally folded into an Accumulator (the
// combiner), and accumulators merge associatively + commutatively into
// one. The feed's producer goroutine is always joined before Run
// returns, so no goroutine outlives the call. The returned Accumulator
// is nil when the feed produced nothing (Fold handles it); callers
// that span several inputs (FromFiles) Combine the returned
// accumulators before folding.
func Run(ctx context.Context, env *Env, feed Feed) (Accumulator, mapreduce.Stats, error) {
	return RunPooled(ctx, env, feed, nil)
}

// RunPooled is Run with a buffer-recycling hook for pooled feeds:
// release (when non-nil) is called exactly once per chunk after its
// final map attempt completes — success, quarantine, or failure — so a
// ChunkPool-backed feed can hand each buffer back for reuse. The hook
// fires only after every retry of the chunk is over (retries re-decode
// the same bytes), and chunks still queued when a run aborts are never
// released; they fall to the garbage collector. The map stage never
// retains chunk bytes past its return (decoded types copy every string
// they keep), which is what makes recycling sound.
func RunPooled(ctx context.Context, env *Env, feed Feed, release func([]byte)) (Accumulator, mapreduce.Stats, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	src := make(chan []byte, FeedBuffer)
	feedDone := make(chan struct{})
	var feedErr error
	go func() {
		defer close(feedDone)
		defer close(src)
		feedErr = feed(func(chunk []byte) error {
			select {
			case src <- chunk:
				return nil
			case <-runCtx.Done():
				return runCtx.Err()
			}
		})
	}()

	mapFn := func(_ context.Context, chunk []byte) (Accumulator, error) {
		return env.mapChunk(chunk)
	}
	combine := Combine
	if env.Phases != nil {
		ph := env.Phases
		combine = func(a, b Accumulator) Accumulator {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			t0 := time.Now()
			a.Merge(b)
			ph.FuseNS.Add(int64(time.Since(t0)))
			return a
		}
	}

	out, mrst, err := mapreduce.RunReleased(runCtx, src, mapFn, combine, nil,
		mapreduce.Config{Workers: env.Workers, Recorder: env.Rec, Failure: env.Failure, Injector: env.Injector}, release)
	if err != nil {
		// Unblock and join the feeder before returning so no goroutine
		// outlives the call.
		cancel()
		<-feedDone
		return nil, mrst, err
	}
	<-feedDone
	if feedErr != nil {
		return nil, mrst, &FeedError{Err: feedErr}
	}
	return out, mrst, nil
}

// mapChunk is the decode+infer map stage: it types the first sample
// records of the chunk through the interner (unless the shared hint
// already settled on degrading), then decides — a sampled distinct
// ratio at or above the threshold with enough intern-table growth per
// record means hash-consing is pure overhead here — and types the rest
// of the chunk down whichever path won. The interned portion fuses as
// a left fold over its distinct types, simplifying each once; the
// degraded portion decodes in the decoder's normal mode, which already
// simplifies, and fuses as a balanced tree. Both land in one autoAcc.
func (e *Env) mapChunk(chunk []byte) (Accumulator, error) {
	dd := e.Dedup
	acc := newAutoAcc(dd, e.Fusion)
	// A failed decode discards the chunk's lattice along with its
	// accumulator, so retried attempts observe into a fresh one and the
	// combine stays exactly-once for enrichment too (docs/ENRICHMENT.md).
	acc.lat = e.newLattice()
	t0 := e.phaseStart()
	dec := infer.NewBytesDecoder(chunk)
	defer dec.Release()
	if o := observer(acc.lat); o != nil {
		dec.SetObserver(o)
	}
	if pr := e.promoter(); pr != nil {
		dec.SetPromoter(pr)
	}
	interned := dd.hint.Load() != hintDegrade
	if interned {
		dec.SetInterner(dd.Tab)
	} else {
		dec.SetNormalizer(e.Fusion)
	}
	var (
		sampled int64
		tab0    = dd.Tab.Len()
		limit   = int64(dd.sample)
		plain   []types.Type
		records int64
	)
	for {
		t, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		records++
		if interned {
			// An interning decoder returns canonical types only.
			ref, _ := dd.Tab.Ref(t)
			acc.ms.Add(ref, 1)
			sampled++
			if sampled == limit {
				dd.noteSample(sampled, int64(dd.Tab.Len()-tab0))
				if dd.decide(int64(acc.ms.Len()), sampled, dd.sampledGrowth()) {
					interned = false
					dec.SetInterner(nil)
					dec.SetNormalizer(e.Fusion)
				}
			}
		} else {
			// A normal-mode decoder returns the simplified type and
			// the raw type's size and hash, which the statistics count.
			acc.addDegraded(dec.RawSizeHash())
			plain = append(plain, t)
		}
	}
	t0 = e.lapInfer(t0)
	// Interned portion: a left fold over the distinct types. Fusion is
	// copy-on-write, so a distinct type the accumulated type already
	// covers returns the accumulator and allocates nothing.
	// Degraded portion: a balanced tree over the per-record normal
	// types, where a left fold would degenerate (see treeFuse).
	fused := types.Type(types.Empty)
	for _, el := range acc.ms.Elems() {
		fused = e.Fusion.Fuse(fused, e.Fusion.Simplify(el.Type))
	}
	if len(plain) > 0 {
		fused = e.Fusion.Fuse(fused, treeFuse(plain, e.Fusion.Fuse))
	}
	acc.fused = fused
	e.lapFuse(t0)
	e.recordChunk(records, int64(len(chunk)), acc.fused)
	return acc, nil
}

// treeFuse reduces the (already simplified) types pairwise, level by
// level, instead of left-folding one giant accumulated type. On
// repetitive data the two shapes cost the same, but on high-entropy
// data (Wikidata's ids-as-keys records, where no two records share a
// shape and the accumulated type keeps growing) the left fold rebuilds
// an ever-larger record per input type — O(records x fused size) — while
// the balanced tree keeps operand sizes matched and the total merge work
// near O(total size x log records). Fusion is associative and
// commutative (Theorems 5.4 and 5.5, property-tested), so the fold
// shape is invisible in the result: schemas stay byte-identical, which
// the differential suite pins against the sequential left fold of
// RunStream. ts is scratch owned by the caller and is overwritten.
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

// promoter returns the Env's phase-one tagged-union promoter as the
// decoder's interface, without smuggling a typed-nil interface through
// when the fusion strategy has none.
func (e *Env) promoter() infer.Promoter {
	if pr := e.Fusion.Promoter(); pr != nil {
		return pr
	}
	return nil
}

// newLattice returns a fresh enrichment lattice, or nil with
// enrichment off.
func (e *Env) newLattice() *enrich.Lattice {
	if e.Enrich == nil {
		return nil
	}
	return e.Enrich.NewLattice()
}

// observer adapts a possibly-nil lattice to the decoder's Observer
// hook without smuggling a typed-nil interface through.
func observer(lat *enrich.Lattice) infer.Observer {
	if lat == nil {
		return nil
	}
	return lat
}

// phaseStart stamps the start of a timed phase segment, or zero when
// phase timing is off.
func (e *Env) phaseStart() time.Time {
	if e.Phases == nil {
		return time.Time{}
	}
	return time.Now()
}

// lapInfer charges the elapsed segment to the infer phase and restarts
// the clock; lapFuse charges it to the fuse phase. Both are no-ops with
// Phases nil.
func (e *Env) lapInfer(t0 time.Time) time.Time {
	if e.Phases == nil {
		return time.Time{}
	}
	now := time.Now()
	e.Phases.InferNS.Add(int64(now.Sub(t0)))
	return now
}

func (e *Env) lapFuse(t0 time.Time) {
	if e.Phases == nil {
		return
	}
	e.Phases.FuseNS.Add(int64(time.Since(t0)))
}

// recordChunk emits the per-chunk metrics and progress tick of the map
// stage.
func (e *Env) recordChunk(records, bytes int64, fused types.Type) {
	if rec := e.Rec; rec != nil {
		rec.Add("infer_chunks", 1)
		rec.Add("infer_records", records)
		rec.Add("infer_bytes", bytes)
		rec.Observe("infer_chunk_records", records)
		// Per-chunk fused sizes are the fusion-growth curve: how
		// far each partition's types collapse before the reduce.
		rec.Observe("infer_chunk_fused_size", int64(fused.Size()))
	}
	if e.Progress != nil {
		e.Progress()
	}
}

// RunStream types a stream of JSON values one at a time with constant
// memory: the sequential driver over the same Accumulator stages the
// chunked Run uses. Returns the accumulator and the number of input
// bytes consumed. Cancellation takes effect between records.
func RunStream(ctx context.Context, env *Env, r io.Reader) (Accumulator, int64, error) {
	dec := infer.NewDecoder(r)
	defer dec.Release()
	dec.SetNormalizer(env.Fusion)
	if pr := env.promoter(); pr != nil {
		dec.SetPromoter(pr)
	}
	acc := env.NewStreamAcc()
	if lat := env.newLattice(); lat != nil {
		dec.SetObserver(lat)
		acc.lat = lat
	}
	var records int64
	for {
		// Batched cancellation: the ctx check runs once per
		// StreamBatchRecords (including before the first record, so a
		// pre-cancelled context never starts work); the steady-state
		// loop is decode + accumulate only. Metrics stay per-record —
		// they are a single atomic add, free when no Recorder is
		// installed, and a live /debug/vars must see an in-flight
		// stream's records before the first batch boundary.
		if records%StreamBatchRecords == 0 {
			select {
			case <-ctx.Done():
				return nil, 0, fmt.Errorf("record %d: %w", records+1, ctx.Err())
			default:
			}
			if env.Progress != nil && records > 0 && records%ProgressEveryRecords == 0 {
				env.Progress()
			}
		}
		t, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("record %d: %w", records+1, err)
		}
		size, _ := dec.RawSizeHash()
		acc.Add(t, size)
		records++
		if env.Rec != nil {
			env.Rec.Add("infer_records", 1)
		}
	}
	n := dec.Offset()
	if env.Rec != nil {
		env.Rec.Add("infer_bytes", n)
	}
	return acc, n, nil
}
