package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Routes of the schemad traffic mix.
const (
	routeIngest = iota
	routeValidate
	routeSchema
	numRoutes
)

var routeNames = [numRoutes]string{"ingest", "validate", "schema_get"}

// A request is one scheduled call. The schedule — due time, route,
// tenant and body — is fixed from the seed before any request is sent.
type request struct {
	due    time.Duration // offset from the start of the run
	route  int
	tenant int
	body   []byte // NDJSON for ingest and validate; nil for schema GET
}

// mix is the traffic shape of an open-loop schedule.
type mix struct {
	rate    float64    // mean arrivals per second (Poisson)
	share   [2]float64 // cumulative route shares: ingest, then validate; the rest are schema GETs
	tenants int        // tenant population
	zipfS   float64    // Zipf skew of tenant popularity (s > 1)
}

// schedule draws the arrivals of one run lasting d: exponential gaps at
// the mix's rate, a route by share and a Zipf-skewed tenant per
// arrival. Bodies are attached later, per tenant.
func schedule(seed int64, m mix, d time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, m.zipfS, 1, uint64(m.tenants-1))
	var out []request
	t := 0.0
	for {
		t += rng.ExpFloat64() / m.rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, request{due: due, tenant: int(zipf.Uint64()), route: pickRoute(rng.Float64(), m.share)})
	}
}

// pickRoute maps a uniform draw u in [0, 1) to a route by the
// cumulative shares.
func pickRoute(u float64, share [2]float64) int {
	switch {
	case u < share[0]:
		return routeIngest
	case u < share[1]:
		return routeValidate
	default:
		return routeSchema
	}
}

// An outcome is what one scheduled request measured.
type outcome struct {
	// lat runs from the request's due time to its completion, so time
	// spent queued behind a stalled request is charged to it.
	lat time.Duration
	// lag is how late the generator handed the request to a connection
	// relative to its due time.
	lag time.Duration
	err error
}

// latencyMS is the request's latency in milliseconds; a failed request
// counts as +Inf, missing every latency limit.
func (o outcome) latencyMS() float64 {
	if o.err != nil {
		return math.Inf(1)
	}
	return ms(o.lat)
}

var errNotSent = errors.New("not sent: the run was cancelled")

// openLoop sends every request of sched at its due time, measured from
// the call, over conns concurrent connections (workers). Arrivals never
// wait for responses: when every connection is busy, due requests queue
// in arrival order and their latency keeps counting from the due time.
// do performs one request. openLoop returns once every request has
// completed.
func openLoop(ctx context.Context, sched []request, conns int, do func(context.Context, *request) error) []outcome {
	out := make([]outcome, len(sched))
	for i := range out {
		// Overwritten when the request is sent; a cancelled run leaves
		// the rest failed.
		out[i].err = errNotSent
	}
	// Sized to the number of sends: the dispatcher never blocks, so
	// its clock cannot be held back by a slow server.
	queue := make(chan int, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case i, ok := <-queue:
					if !ok {
						return
					}
					err := do(ctx, &sched[i])
					out[i].lat = time.Since(start) - sched[i].due
					out[i].err = err
				}
			}
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := range sched {
		if wait := sched[i].due - time.Since(start); wait > 0 && ctx.Err() == nil {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
			}
		}
		out[i].lag = time.Since(start) - sched[i].due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}
