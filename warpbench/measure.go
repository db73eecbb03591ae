package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"nicwarp/internal/core"
	"nicwarp/internal/timewarp"
)

// now and since are the benchmark's only wall-clock reads.
func now() time.Time { return time.Now() } //nicwarp:wallclock benchmark timing, never enters simulation state

func since(t time.Time) int64 { return time.Since(t).Nanoseconds() } //nicwarp:wallclock benchmark timing, never enters simulation state

// reference is the sequential oracle's answer for one configuration,
// computed once in set-up.
type reference struct {
	events   int
	digest   uint64
	buildNs  int64 // App.Build
	oracleNs int64 // timewarp.Sequential
}

func computeReference(cfg core.Config) reference {
	t0 := now()
	objs, _ := cfg.App.Build(cfg.Nodes, cfg.Seed)
	build := since(t0)
	t1 := now()
	seq := timewarp.Sequential(objs, 0)
	return reference{events: seq.TotalEvents, digest: seq.Digest, buildNs: build, oracleNs: since(t1)}
}

// runStats is one measured cluster run.
type runStats struct {
	wallNs    int64     // (*core.Cluster).Run
	cal       []calPass // calibration passes after the run; timed rounds only
	allocs    uint64
	bytes     uint64
	peakHeap  uint64  // bytes of heap objects, sampled every millisecond; first round only
	gcCPU     float64 // CPU seconds the GC spent during Run
	busyCPU   float64 // CPU seconds not idle during Run
	gcCycles  uint64
	desEvents uint64 // events fired by engine 0
	shards    int
	res       *core.Result
	fail      string // why the run failed its gate; "" when it passed
}

// Runtime metrics read around every run.
//
//nicwarp:sharded init-only metric names, never written
var runMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

// runOnce builds, runs and gates one cluster. Allocation and GC figures
// cover Run alone; every run starts from a collected heap. With sampleHeap
// a goroutine polls the heap size during Run, so the run's wall time is
// not used. Otherwise the heap is collected again after Run and passes of
// cal are timed beside it.
func runOnce(cfg core.Config, ref reference, sampleHeap bool, cal *calibrator) runStats {
	var st runStats
	runtime.GC()
	cl, err := core.NewClusterExec(cfg, core.Exec{})
	if err != nil {
		st.fail = err.Error()
		return st
	}
	st.shards = cl.Shards()

	var heap *heapSampler
	if sampleHeap {
		heap = startHeapSampler()
	}
	before := make([]metrics.Sample, len(runMetricNames))
	after := make([]metrics.Sample, len(runMetricNames))
	for i, name := range runMetricNames {
		before[i].Name, after[i].Name = name, name
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(before)
	var res *core.Result
	t1 := now()
	pprof.Do(context.Background(), pprof.Labels(runLabel, "run"), func(context.Context) {
		res, err = cl.Run()
	})
	st.wallNs = since(t1)
	metrics.Read(after)
	runtime.ReadMemStats(&m1)
	if heap != nil {
		st.peakHeap = heap.stop()
	}

	st.allocs = m1.Mallocs - m0.Mallocs
	st.bytes = m1.TotalAlloc - m0.TotalAlloc
	st.gcCPU = after[0].Value.Float64() - before[0].Value.Float64()
	st.busyCPU = after[1].Value.Float64() - before[1].Value.Float64() -
		(after[2].Value.Float64() - before[2].Value.Float64())
	st.gcCycles = after[3].Value.Uint64() - before[3].Value.Uint64()
	st.desEvents = cl.Engine().Processed()
	st.res = res
	st.fail = gate(res, err, ref)
	if !sampleHeap {
		runtime.GC()
		st.cal = cal.run(float64(st.wallNs))
	}
	return st
}

// setupReps is how many set-up samples timeSetups takes per sub-seed.
const setupReps = 5

// setupSampleNs is the least time one set-up sample spans. A single
// core.NewClusterExec takes from tens of microseconds to a few
// milliseconds, and single calls that short vary several-fold on a shared
// machine.
const setupSampleNs = 10e6

// timeSetups returns setupReps samples per configuration of the host
// seconds core.NewClusterExec takes, interleaving the configurations, and
// the ns of the calibration passes timed after each sample. A sample is
// the mean over back-to-back set-ups of one configuration, repeated until
// they span setupSampleNs, started from a collected heap. The clusters are
// discarded unrun.
func timeSetups(cfgs []core.Config, cal *calibrator) (secs []float64, passes []calPass, err error) {
	for rep := 0; rep < setupReps; rep++ {
		for _, cfg := range cfgs {
			runtime.GC()
			t0 := now()
			n := 0
			for n == 0 || since(t0) < setupSampleNs {
				if _, err := core.NewClusterExec(cfg, core.Exec{}); err != nil {
					return nil, nil, fmt.Errorf("set-up of Config.Seed %d: %w", cfg.Seed, err)
				}
				n++
			}
			span := float64(since(t0))
			secs = append(secs, span/1e9/float64(n))
			runtime.GC()
			passes = append(passes, cal.run(span)...)
		}
	}
	return secs, passes, nil
}

// gate checks a run against the sequential oracle. Drop-buffer evictions
// orphan anti-messages, after which committed results may legitimately
// deviate from the oracle, so they fail the run too. Early cancellation
// leaves one BIP sequence hole per positive dropped in place and per
// anti-message filtered on the NIC; holes beyond those are lost messages.
func gate(res *core.Result, err error, ref reference) string {
	switch {
	case err != nil:
		return err.Error()
	case res.CommittedEvents != ref.events:
		return fmt.Sprintf("committed %d events, oracle %d", res.CommittedEvents, ref.events)
	case res.Digest != ref.digest:
		return fmt.Sprintf("digest %016x, oracle %016x", res.Digest, ref.digest)
	case res.DropBufEvictions > 0 || res.OrphanAntis > 0:
		return fmt.Sprintf("%d drop-buffer evictions, %d orphan antis", res.DropBufEvictions, res.OrphanAntis)
	case res.BIPOutstanding > res.DroppedInPlace+res.AntisFiltered:
		return fmt.Sprintf("%d open BIP holes exceed %d NIC drops",
			res.BIPOutstanding, res.DroppedInPlace+res.AntisFiltered)
	}
	return ""
}

// fingerprint hashes every simulated counter of a result, the digest
// included, so two runs of one configuration can be shown to have modelled
// the same thing. The time series and the invariant report are skipped.
func fingerprint(res *core.Result) uint64 {
	h := fnv.New64a()
	v := reflect.ValueOf(res).Elem()
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		var bits uint64
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			bits = uint64(f.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			bits = f.Uint()
		case reflect.Float32, reflect.Float64:
			bits = math.Float64bits(f.Float())
		default:
			continue
		}
		h.Write(binary.LittleEndian.AppendUint64([]byte(t.Field(i).Name), bits))
	}
	return h.Sum64()
}

// heapSampler polls the heap size from its own goroutine until stopped.
type heapSampler struct {
	done chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		tick := time.NewTicker(time.Millisecond) //nicwarp:wallclock heap polling period, outside the model
		defer tick.Stop()
		for {
			read()
			select {
			case <-h.done:
				read()
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler, waits for it and returns the peak it saw.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	return <-h.peak
}

// options selects what one benchmark run does.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// scale multiplies the workload's size knob; the benchmark is defined
	// at 1, tests run smaller.
	scale float64
	// tamper corrupts every reference digest, which must fail every run.
	tamper bool
}

// measurement is everything one benchmark run of a workload observed.
type measurement struct {
	w    workload
	o    options
	cfgs []core.Config
	refs []reference
	cal  *calibrator
	// setupSecs and setupCal are the set-up times and calibration passes
	// of timeSetups.
	setupSecs []float64
	setupCal  []calPass
	// first is the untimed round that samples the heap and fixes each
	// sub-seed's model fingerprint and deterministic counters.
	first []runStats
	// rounds are timed rounds without the profiler; traced rounds ran
	// under the CPU profiler (trace mode only).
	rounds, traced [][]runStats
	// layerNs is the traced rounds' CPU time folded by layer.
	layerNs map[string]int64
	// fps is the model fingerprint of each sub-seed's first run.
	fps       []uint64
	attempted int
	failures  []string
}

// measure runs one workload. Set-up computes the oracle references, times
// cluster set-up and runs the untimed first round; then timed rounds run
// for o.seconds (half untraced, half under the CPU profiler in trace mode).
// Every run is gated; failures are counted, never retried.
func measure(w workload, o options) (*measurement, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	m := &measurement{w: w, o: o, cfgs: w.configs(o.seed, o.scale), cal: cal}
	for _, cfg := range m.cfgs {
		ref := computeReference(cfg)
		if o.tamper {
			ref.digest ^= 1
		}
		m.refs = append(m.refs, ref)
	}
	if m.setupSecs, m.setupCal, err = timeSetups(m.cfgs, m.cal); err != nil {
		return nil, err
	}
	m.fps = make([]uint64, len(m.cfgs))
	m.first = m.runRound(true)
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	m.rounds = m.runRounds(budget)
	if !o.trace {
		return m, nil
	}
	dir, err := os.MkdirTemp("", "warpbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := dir + "/cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	m.traced = m.runRounds(budget)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	p, err := readProfile(path)
	if err != nil {
		return nil, err
	}
	m.layerNs = foldProfile(p)
	return m, nil
}

// runRound runs and checks one cluster per sub-seed.
func (m *measurement) runRound(sampleHeap bool) []runStats {
	r := make([]runStats, len(m.cfgs))
	for k, cfg := range m.cfgs {
		r[k] = runOnce(cfg, m.refs[k], sampleHeap, m.cal)
		m.check(k, &r[k])
	}
	return r
}

// runRounds runs whole timed rounds, at least one, and then no round that
// would end past budget seconds if it took as long as the last one.
func (m *measurement) runRounds(budget float64) [][]runStats {
	var rounds [][]runStats
	start := now()
	var last int64
	for len(rounds) == 0 || float64(since(start)+last) <= budget*1e9 {
		t0 := now()
		rounds = append(rounds, m.runRound(false))
		last = since(t0)
	}
	return rounds
}

// check counts a run and records why it failed: its oracle gate, or a
// model fingerprint that differs from the sub-seed's first run.
func (m *measurement) check(k int, st *runStats) {
	m.attempted++
	if st.fail == "" {
		fp := fingerprint(st.res)
		switch {
		case m.fps[k] == 0:
			m.fps[k] = fp
		case m.fps[k] != fp:
			st.fail = fmt.Sprintf("model fingerprint %016x differs from first run's %016x", fp, m.fps[k])
		}
	}
	if st.fail != "" {
		m.failures = append(m.failures, fmt.Sprintf("sub-seed %d (Config.Seed %d): %s", k, m.cfgs[k].Seed, st.fail))
	}
}

// runFingerprint folds the sub-seeds' fingerprints into one value.
func (m *measurement) runFingerprint() uint64 {
	h := fnv.New64a()
	for _, fp := range m.fps {
		h.Write(binary.LittleEndian.AppendUint64(nil, fp))
	}
	return h.Sum64()
}
