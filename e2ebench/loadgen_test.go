package main

import (
	"context"
	"testing"
	"time"
)

// A stalled request holds its connection; requests queued behind it are
// charged the wait, because latency runs from each request's due time.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 120 * time.Millisecond
	var sched []request
	for i := 0; i < 5; i++ {
		sched = append(sched, request{due: time.Duration(i) * 10 * time.Millisecond})
	}
	do := func(_ context.Context, r *request) error {
		if r.due == 0 {
			time.Sleep(stall)
		}
		return nil
	}
	outs := openLoop(context.Background(), sched, 1, do)
	if outs[0].lat < stall {
		t.Errorf("stalled request latency %v < stall %v", outs[0].lat, stall)
	}
	for i := 1; i < len(sched); i++ {
		// It could not start before the stall ended, so it waited at
		// least stall - due.
		if min := stall - sched[i].due; outs[i].lat < min {
			t.Errorf("request %d (due %v): latency %v, want >= %v", i, sched[i].due, outs[i].lat, min)
		}
		if outs[i].lag > stall/2 {
			t.Errorf("request %d: the generator itself was held back %v by the stall", i, outs[i].lag)
		}
	}

	// With a second connection the same stall delays nobody else.
	outs = openLoop(context.Background(), sched, 2, do)
	for i := 1; i < len(sched); i++ {
		if outs[i].lat > stall/2 {
			t.Errorf("two connections: request %d latency %v, want well under the %v stall", i, outs[i].lat, stall)
		}
	}
}

func TestScheduleIsFixedBySeed(t *testing.T) {
	m := mix{rate: 100, share: [2]float64{0.60, 0.85}, tenants: 64, zipfS: 1.1}
	a := schedule(7, m, 20*time.Second)
	b := schedule(7, m, 20*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d requests", len(a), len(b))
	}
	var routes [numRoutes]int
	hot := 0
	for i := range a {
		if a[i].due != b[i].due || a[i].route != b[i].route || a[i].tenant != b[i].tenant {
			t.Fatalf("same seed, request %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrivals out of order at %d", i)
		}
		routes[a[i].route]++
		if a[i].tenant == 0 {
			hot++
		}
	}
	n := float64(len(a))
	if n < 1800 || n > 2200 {
		t.Errorf("%v requests in 20s at 100/s", n)
	}
	for r, want := range []float64{0.60, 0.25, 0.15} {
		if got := float64(routes[r]) / n; got < want-0.05 || got > want+0.05 {
			t.Errorf("%s share %.3f, want about %.2f", routeNames[r], got, want)
		}
	}
	if float64(hot)/n < 0.1 {
		t.Errorf("hottest tenant got %d of %v requests; tenants are not skewed", hot, n)
	}
	if c := schedule(8, m, 20*time.Second); len(c) == len(a) && c[0].due == a[0].due && c[1].due == a[1].due {
		t.Error("a different seed gave the same schedule")
	}
}

func TestClassP50IgnoresTheRouteMix(t *testing.T) {
	// Ingests of tenant 0 take 8 ms, schema GETs of tenant 1 take 2 ms.
	// However many of each are sent, the figure is their geometric mean.
	for _, ingests := range []int{3, 30} {
		var sched []request
		var lat []float64
		for i := 0; i < ingests; i++ {
			sched = append(sched, request{route: routeIngest, tenant: 0})
			lat = append(lat, 8)
		}
		for i := 0; i < 10; i++ {
			sched = append(sched, request{route: routeSchema, tenant: 1})
			lat = append(lat, 2)
		}
		if got := classP50(sched, lat); got < 4-1e-9 || got > 4+1e-9 {
			t.Errorf("%d ingests: classP50 = %v, want 4", ingests, got)
		}
	}
}
