package main

import (
	"math"
	"testing"
	"time"
)

func TestScaleBetween(t *testing.T) {
	ref := probeTime{wall: refProbeWallMS * time.Millisecond, cpu: refProbeCPUMS * time.Millisecond}
	slow := probeTime{wall: 2 * ref.wall, cpu: 2 * ref.cpu}
	for _, c := range []struct {
		name          string
		before, after probeTime
		wall, cpu     float64
	}{
		{"reference speed", ref, ref, 1, 1},
		{"half speed", slow, slow, 0.5, 0.5},
		{"mean of the two sides", ref, probeTime{wall: 3 * ref.wall, cpu: ref.cpu}, 0.5, 1},
	} {
		got := scaleBetween(c.before, c.after)
		if math.Abs(got.wall-c.wall) > 1e-9 || math.Abs(got.cpu-c.cpu) > 1e-9 {
			t.Errorf("%s: scale %+v, want wall %v cpu %v", c.name, got, c.wall, c.cpu)
		}
	}
}

func TestHostProbeTimesWork(t *testing.T) {
	p, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	got := p.run()
	if got.wall <= 0 || got.cpu <= 0 {
		t.Fatalf("probe times %+v, want both positive", got)
	}
	// The lanes run at once, so the wall time cannot be much shorter
	// than one lane's CPU time.
	if got.wall < got.cpu/2 {
		t.Errorf("probe wall %v is under half its per-lane CPU time %v", got.wall, got.cpu)
	}
}
