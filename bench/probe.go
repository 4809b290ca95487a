package main

import (
	"sort"
	"time"
)

// The sandbox this benchmark runs in shares its cores and caches with
// other tenants: for seconds to minutes at a time everything that
// switches goroutines runs 30-90 % slower, while a quiet stretch
// repeats to 2 %. A whole-window wall time therefore says more about
// the neighbours than about the code. The probe is how the benchmark
// tells the two apart: a fixed piece of work made of the same stuff
// the simulator is made of (goroutine hand-offs over unbuffered
// channels, each touching its own stack) but of none of its code,
// timed beside every sub-window and every set-up. A time divided by
// how much slower than probeRef the probe ran beside it is a time in
// calibrated seconds: what the work would have taken on the machine
// the benchmark was defined on, in a quiet moment.

const (
	probeProcs = 512
	probeHops  = 8192
	// probeRef is one probe on the defining machine when nothing else
	// runs (2.1 GHz Xeon, go1.24, GOMAXPROCS=1). It only fixes the scale
	// of calibrated seconds; every comparison is between runs that
	// share it.
	probeRef = 2750 * time.Microsecond
)

// probe is a ring of parked goroutines passing a counter round.
type probe struct {
	in   []chan int
	done chan struct{}
}

func newProbe() *probe {
	p := &probe{in: make([]chan int, probeProcs), done: make(chan struct{})}
	for i := range p.in {
		p.in[i] = make(chan int)
	}
	for i := range p.in {
		i := i
		go func() {
			var pad [2048]byte // a stack worth touching, as a simulated process has
			for v := range p.in[i] {
				pad[v&2047]++
				if v == 0 {
					p.done <- struct{}{}
					continue
				}
				p.in[(i+1)%probeProcs] <- v - 1
			}
		}()
	}
	p.slowdown() // first lap: stacks grown, channels warm
	return p
}

// slowdown times one probe and returns it as a multiple of probeRef.
func (p *probe) slowdown() float64 {
	t0 := time.Now()
	p.in[0] <- probeHops
	<-p.done
	return float64(time.Since(t0)) / float64(probeRef)
}

// stop ends the ring's goroutines.
func (p *probe) stop() {
	for _, c := range p.in {
		close(c)
	}
}

// calibrated is one timed interval with the probe readings on either
// side of it.
type calibrated struct {
	wall          float64 // seconds
	before, after float64 // probe slowdowns
}

// seconds returns the interval in calibrated seconds.
func (c calibrated) seconds() float64 { return c.wall / ((c.before + c.after) / 2) }

// lowerQuartile returns the value a quarter of the way up the sorted
// sample. Interference only ever adds time, in bursts, so the quiet
// quarter of a run's sub-windows is the part that measures the code.
func lowerQuartile(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
}
