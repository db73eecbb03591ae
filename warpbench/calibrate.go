package main

import (
	"container/heap"
	"fmt"
	"math"
	"syscall"
	"unsafe"
)

// Host time on a shared machine follows the load that other tenants put on
// the same cores and caches: whole runs slow down by a quarter or more for
// seconds to minutes at a time, and no run averages out a slow spell that
// outlasts it. So the benchmark times passes of fixed kernels of its own
// right after every timed cluster run and every set-up sample, for a fifth
// of the time it measured, and reports host time scaled to a reference
// speed (calScale). A slow spell stretches the measurements and the passes
// beside them, and cancels out of the scaled figure; medians over many
// passes keep the kernels' own jitter out of it. The kernels never call the
// simulator and the scale does not depend on it, so a change to the
// program moves a scaled figure by exactly the share it moves the raw one.
//
// No single kernel slows down like the simulator in every spell: some
// spells slow arithmetic, some cache accesses, some allocation and
// collection more than the rest. So a pass runs three kernels, one for
// each, and the speed is their geometric mean. Over 71 windows of 10 s of
// three workloads' runs, the standard deviation of log raw wall time per
// committed event, each sub-seed against its own median, was 0.086;
// divided by one kernel's time it was 0.062 to 0.070, by the geometric
// mean of the three 0.056.

const (
	// calWords sizes the cache kernel's buffer: 1 MiB, which stays in the
	// level-2 cache but not the level-1. A 2 MiB buffer, the size of the
	// level-2 cache, made a pass's time depend on where the buffer landed
	// in physical memory, which differs from one process to the next.
	calWords = 1 << 17
	// calArithWords sizes the arithmetic kernel's buffer: 32 KiB, inside
	// the level-1 cache.
	calArithWords = 1 << 12
	// calRefNs defines the reference speed: the one at which each kernel
	// takes exactly 7 ms a pass. On the shared 2 GHz Xeon vCPUs the
	// benchmark was tuned on, a kernel took about 6 to 10 ms.
	calRefNs = 7e6
	// calShare is the kernels' time beside a measurement, as a share of
	// the measurement's.
	calShare = 0.2
	// calExponent is how much more the simulator slows down in a slow
	// spell than the kernels do, in log terms. Over two sets of ten runs of
	// each of the four workloads, log raw wall time per committed event
	// against log kernel time, each set against its own mean, had a
	// correlation of 0.93 and a least-squares slope of 1.7 (2.0 the other
	// way round). The quartile spreads of the ten runs were 1.3-8.8% with
	// this exponent, 2.4-14.7% with 1 and 2.6-13.2% with 2, against
	// 7.5-29.4% raw. Two further sets run with it spread 3.0-10.0%,
	// against 6.4-19.5% raw.
	calExponent = 1.5
)

// calKernels is the number of kernels in a pass.
const calKernels = 3

// calPass is the ns each kernel took in one pass.
type calPass [calKernels]float64

// calibrator owns the cache and arithmetic kernels' buffer. It is mapped
// once, outside the Go heap, so that those kernels never allocate, the
// buffer adds nothing to peak_heap_mb and the collector neither scans it
// nor paces by it.
type calibrator struct {
	mem []byte
	buf []uint64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("map calibration buffer: %w", err)
	}
	return &calibrator{mem: mem, buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calWords)}, nil
}

// close unmaps the buffer.
func (c *calibrator) close() error {
	c.buf = nil
	return syscall.Munmap(c.mem)
}

// run times whole passes, at least one, until they span calShare of
// measuredNs, and returns them.
func (c *calibrator) run(measuredNs float64) []calPass {
	var passes []calPass
	var spent float64
	for len(passes) == 0 || spent < calShare*measuredNs {
		var p calPass
		for k := range p {
			t0 := now()
			switch k {
			case 0:
				rmw(c.buf[:calArithWords], 2_500_000)
			case 1:
				rmw(c.buf, 2_000_000)
			case 2:
				miniDES(4096, 10_000)
			}
			p[k] = float64(since(t0))
			spent += p[k]
		}
		passes = append(passes, p)
	}
	return passes
}

// calScale is the factor that takes host time to the reference speed,
// given the passes timed beside it: the geometric mean over kernels of
// calRefNs over the kernel's median pass, raised to calExponent.
func calScale(passes []calPass) float64 {
	if len(passes) == 0 {
		return 0
	}
	var logSum float64
	for k := 0; k < calKernels; k++ {
		ns := make([]float64, len(passes))
		for i, p := range passes {
			ns[i] = p[k]
		}
		logSum += math.Log(calRefNs / median(ns))
	}
	return math.Exp(calExponent * logSum / calKernels)
}

// rmw is the arithmetic and cache kernel: xorshift-addressed
// read-modify-writes over buf, whose length is a power of two.
func rmw(buf []uint64, iters int) {
	mask := uint64(len(buf) - 1)
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&mask] += x
	}
}

// miniDES is the allocation kernel: a toy discrete-event loop over a
// binary heap of heap-allocated events, with per-object state and maps,
// the same events every pass.
func miniDES(objects, events int) {
	type object struct {
		state [32]uint64
		m     map[uint32]uint64
	}
	objs := make([]*object, objects)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	q := make(calQueue, 0, objects)
	for i := range objs {
		objs[i] = &object{m: make(map[uint32]uint64)}
		q = append(q, &calEvent{at: next() & 1023, obj: int32(i)})
	}
	heap.Init(&q)
	for n := 0; n < events; n++ {
		e := heap.Pop(&q).(*calEvent)
		o := objs[e.obj]
		r := next()
		o.state[r&31] += e.at ^ e.payload[r>>8&7]
		if k := uint32(r>>16) & 63; r&1 == 0 {
			o.m[k] += e.at
		} else {
			delete(o.m, k)
		}
		ne := &calEvent{at: e.at + 1 + (r>>24)&255, obj: int32((r >> 40) % uint64(objects))}
		ne.payload[r&7] = r
		heap.Push(&q, ne)
	}
}

// calEvent is one event of miniDES.
type calEvent struct {
	at      uint64
	obj     int32
	payload [8]uint64
}

// calQueue is miniDES's event queue, ordered by time, then object.
type calQueue []*calEvent

func (q calQueue) Len() int { return len(q) }
func (q calQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].obj < q[j].obj)
}
func (q calQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(e any)   { *q = append(*q, e.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}
