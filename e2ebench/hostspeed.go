package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The reference host is a shared 2-vCPU VM whose speed moves in phases
// of a minute or more: the same jsoninfer pass on the same file takes
// anywhere from 1.5 s to 3.4 s. Mostly the CPU itself runs slower (wall
// and CPU time of a pass move together), and in some phases the VM is
// also descheduled (wall time grows, CPU time does not). Each timed
// figure is therefore scaled to the reference host's speed by a fixed
// probe run next to it: wall times by the probe's wall time, CPU times
// by the probe's CPU time. The probe is standard-library work only
// (deflate, sort, map inserts) on inputs fixed at start-up, so no
// change to the repository changes its time.

// The probe's median wall and CPU time on the reference host. They
// only set the scale: a figure taken while the probe runs in these
// times is reported as measured.
const (
	refProbeWallMS = 400
	refProbeCPUMS  = 380
)

// rusageThread is RUSAGE_THREAD on Linux: the calling thread's usage.
const rusageThread = 1

// hostProbe runs the probe on one lane per CPU at once, as jsoninfer
// and schemad run one worker per CPU. The lanes take the probe's work
// items in turn from a shared counter, as the programs' workers take
// chunks, so a lane whose vCPU is descheduled leaves its share to the
// others, as a worker does.
type hostProbe struct {
	text  []byte // deflate input, probeItems slices
	ints  []int  // sort input, probeItems slices
	lanes []*probeLane
}

// probeItems is how many work items one probe run is split into. Item
// i works on slice i of the inputs, so a run streams all of them
// through the caches, as the programs stream their input and heap.
const probeItems = 16

// probeLane holds one lane's buffers so that timing it allocates
// nothing after the first run.
type probeLane struct {
	work  []int
	out   bytes.Buffer
	fw    *flate.Writer
	table map[int]int
	cpu   time.Duration // CPU time of the lane's last run
}

// probeTime is one probe run's wall time and its CPU time per lane.
type probeTime struct {
	wall, cpu time.Duration
}

func newHostProbe() (*hostProbe, error) {
	if _, err := threadCPU(); err != nil {
		return nil, fmt.Errorf("thread CPU time: %w", err)
	}
	rng := rand.New(rand.NewSource(1))
	p := &hostProbe{text: make([]byte, probeItems<<19), ints: make([]int, probeItems<<15)}
	for i := range p.text {
		p.text[i] = byte('a' + rng.Intn(8))
	}
	for i := range p.ints {
		p.ints[i] = rng.Int()
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		l := &probeLane{work: make([]int, len(p.ints)/probeItems), table: make(map[int]int, 1<<16)}
		l.out.Grow(len(p.text) / probeItems)
		fw, err := flate.NewWriter(&l.out, 5)
		if err != nil {
			return nil, err
		}
		l.fw = fw
		p.lanes = append(p.lanes, l)
	}
	p.run()
	return p, nil
}

// run times one round of the probe, then collects its garbage so that
// the collector does not run during the figure timed next.
func (p *hostProbe) run() probeTime {
	var next atomic.Int32
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, l := range p.lanes {
		wg.Add(1)
		go func(l *probeLane) {
			defer wg.Done()
			l.run(p, &next)
		}(l)
	}
	wg.Wait()
	t := probeTime{wall: time.Since(t0)}
	for _, l := range p.lanes {
		t.cpu += l.cpu / time.Duration(len(p.lanes))
	}
	runtime.GC()
	return t
}

// run takes items until none is left, on one OS thread, and records
// the thread's CPU time.
func (l *probeLane) run(p *hostProbe, next *atomic.Int32) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, _ := threadCPU()
	clear(l.table)
	for {
		i := int(next.Add(1)) - 1
		if i >= probeItems {
			break
		}
		text := p.text[i*len(p.text)/probeItems : (i+1)*len(p.text)/probeItems]
		ints := p.ints[i*len(p.ints)/probeItems : (i+1)*len(p.ints)/probeItems]
		l.out.Reset()
		l.fw.Reset(&l.out)
		//lint:ignore droppederr writes into a bytes.Buffer cannot fail
		l.fw.Write(text)
		//lint:ignore droppederr closes into a bytes.Buffer cannot fail
		l.fw.Close()
		copy(l.work, ints)
		sort.Ints(l.work)
		for j, x := range l.work[:len(l.work)/4] {
			l.table[x%100003] += j
		}
	}
	c1, _ := threadCPU()
	l.cpu = c1 - c0
}

// threadCPU is the user + system CPU time of the calling OS thread.
func threadCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// hostScale holds the factors that take a wall time and a CPU time
// measured between two probe runs to the reference host's speed; each
// is below 1 when the host ran slow.
type hostScale struct {
	wall, cpu float64
}

func scaleBetween(before, after probeTime) hostScale {
	return hostScale{
		wall: refProbeWallMS / ms((before.wall+after.wall)/2),
		cpu:  refProbeCPUMS / ms((before.cpu+after.cpu)/2),
	}
}
