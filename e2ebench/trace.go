package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// A Span is one timed call into a layer: its name, its interval in
// nanoseconds since the tracer started, and the span that was open when
// it began (-1 for a root). Allocs is the number of heap allocations
// made during the span, or -1 when the span did not count them.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs int64  `json:"allocs"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// A Tracer keeps the spans of one single-goroutine replay in memory;
// WriteFile writes them out once the replay is over. A nil *Tracer is
// valid and records nothing, so the untraced replay runs the same code.
type Tracer struct {
	epoch time.Time
	spans []Span
	open  []int // stack of open span IDs
	mem   runtime.MemStats
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	// Preallocated so that span bookkeeping does not allocate inside
	// the spans whose allocations are counted.
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, 1<<17)}
}

// Begin opens a span and returns its ID; End closes it.
func (t *Tracer) Begin(name string) int { return t.begin(name, false) }

// BeginAllocs is Begin for a span that also counts heap allocations.
// Reading the allocation counter stops the world briefly, so it is
// used on per-chunk spans, not per-call ones.
func (t *Tracer) BeginAllocs(name string) int { return t.begin(name, true) }

func (t *Tracer) begin(name string, allocs bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	sp := Span{ID: id, Parent: parent, Name: name, Allocs: -1}
	if allocs {
		runtime.ReadMemStats(&t.mem)
		sp.Allocs = int64(t.mem.Mallocs)
	}
	sp.Start = int64(time.Since(t.epoch))
	t.spans = append(t.spans, sp)
	t.open = append(t.open, id)
	return id
}

// End closes the span id, which must be the innermost open one.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	sp := &t.spans[id]
	sp.End = int64(time.Since(t.epoch))
	if sp.Allocs >= 0 {
		runtime.ReadMemStats(&t.mem)
		sp.Allocs = int64(t.mem.Mallocs) - sp.Allocs
	}
	t.open = t.open[:len(t.open)-1]
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.Spans() {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return w.Flush()
}

// LayerTotals sums, per span name, the self time (duration minus the
// time covered by direct child spans) and the counted allocations.
// Children of one span never overlap: the replay runs on one goroutine.
type LayerTotals struct {
	Self   time.Duration
	Allocs int64
}

// SelfTimes aggregates spans by name.
func SelfTimes(spans []Span) map[string]LayerTotals {
	child := make([]time.Duration, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.Dur()
		}
	}
	out := make(map[string]LayerTotals)
	for i, sp := range spans {
		lt := out[sp.Name]
		lt.Self += sp.Dur() - child[i]
		if sp.Allocs > 0 {
			lt.Allocs += sp.Allocs
		}
		out[sp.Name] = lt
	}
	return out
}

// Durations returns the wall durations of the spans named name, in
// milliseconds, in recording order.
func Durations(spans []Span, name string) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, ms(sp.Dur()))
		}
	}
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
