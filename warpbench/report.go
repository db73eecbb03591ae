package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"

	"nicwarp/internal/core"
)

// metric is one reported figure. note carries the human table's extra
// column (sample counts, tails); it is not part of the JSON result.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail describes the highest percentile of xs that has at least ten samples
// beyond it, or the maximum when there are too few samples for one.
func tail(xs []float64, format string) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return "no samples"
	}
	if n < 11 {
		return fmt.Sprintf("max "+format+" of %d samples", s[n-1], n)
	}
	return fmt.Sprintf("p%d "+format+" of %d samples", 100*(n-10)/n, s[n-11], n)
}

// perEvent is the sum over sub-seeds of the median of f over each
// sub-seed's runs, per committed event. Taking each sub-seed's median
// before combining keeps a workload's figure from jumping between
// sub-seeds whose costs differ.
func perEvent(rounds [][]runStats, f func(*runStats) float64) float64 {
	var num, den float64
	for k := range rounds[0] {
		var xs []float64
		var ev float64
		for _, r := range rounds {
			if s := &r[k]; s.res != nil {
				xs = append(xs, f(s))
				ev = float64(s.res.CommittedEvents)
			}
		}
		if len(xs) > 0 {
			num += median(xs)
			den += ev
		}
	}
	return ratio(num, den)
}

// perRun returns f of every run that produced a result.
func perRun(rounds [][]runStats, f func(*runStats) float64) []float64 {
	var out []float64
	for _, r := range rounds {
		for i := range r {
			if r[i].res != nil {
				out = append(out, f(&r[i]))
			}
		}
	}
	return out
}

func wallNs(s *runStats) float64     { return float64(s.wallNs) }
func allocs(s *runStats) float64     { return float64(s.allocs) }
func allocBytes(s *runStats) float64 { return float64(s.bytes) }
func heapMB(s *runStats) float64     { return float64(s.peakHeap) / 1e6 }

// endToEnd computes the end-to-end metrics. Per-event figures take each
// sub-seed's median over the timed rounds, sum them and divide by the
// events committed. Host times are scaled to the calibration kernel's
// reference speed (calibrate.go); the notes give the raw figures. Set-up
// time is the median of the set-up samples. Peak heap and the
// deterministic figures come from the untimed first round.
// des_events_per_event is left out when a run was sharded, since
// Cluster.Engine counts engine 0 only.
func (m *measurement) endToEnd() []metric {
	rounds := m.rounds
	runCal, runScale := roundsCal(rounds)
	setupScale := calScale(m.setupCal)
	perRunWall := perRun(rounds, func(s *runStats) float64 { return ratio(wallNs(s), float64(s.res.CommittedEvents)) })
	for i := range perRunWall {
		perRunWall[i] *= runScale
	}
	setupRef := make([]float64, len(m.setupSecs))
	for i, x := range m.setupSecs {
		setupRef[i] = x * setupScale
	}
	byRounds := fmt.Sprintf("sub-seed medians of %d rounds", len(rounds))
	wall := perEvent(rounds, wallNs)
	first := m.firstRound()
	out := []metric{
		{"calibrated_ns_per_event", "ns", wall * runScale,
			fmt.Sprintf("%s; single runs: %s; raw wall %.0f ns, speed factor %.4f from %d calibration passes",
				byRounds, tail(perRunWall, "%.0f"), wall, runScale, len(runCal))},
		{"allocs_per_event", "count", perEvent(rounds, allocs), byRounds},
		{"bytes_per_event", "B", perEvent(rounds, allocBytes), byRounds},
		{"peak_heap_mb", "MB", first.heapMB,
			fmt.Sprintf("highest of %d sub-seeds, untimed first round", first.runs)},
		{"setup_s", "s", median(setupRef),
			fmt.Sprintf("median of %d set-up samples; %s; raw %.6f, speed factor %.4f from %d calibration passes",
				len(setupRef), tail(setupRef, "%.6f"), median(m.setupSecs), setupScale, len(m.setupCal))},
	}
	if !first.sharded {
		out = append(out, metric{"des_events_per_event", "count",
			ratio(first.desEvents, float64(first.res.CommittedEvents)), "deterministic"})
	}
	out = append(out, metric{"model_exec_s", "s", ratio(first.res.ExecTime.Seconds(), float64(first.runs)),
		fmt.Sprintf("mean simulated time of %d sub-seeds", first.runs)})
	return out
}

// roundsCal returns every calibration pass timed in rounds and the scale
// they give.
func roundsCal(rounds [][]runStats) ([]calPass, float64) {
	var passes []calPass
	for _, r := range rounds {
		for i := range r {
			passes = append(passes, r[i].cal...)
		}
	}
	return passes, calScale(passes)
}

// roundSum holds the untimed first round's figures.
type roundSum struct {
	res       core.Result // every counter summed over the round
	runs      int         // runs with a result
	desEvents float64     // DES events fired, engine 0 of each run
	heapMB    float64     // highest peak heap of the round
	sharded   bool        // some run used more than one engine
}

func (m *measurement) firstRound() roundSum {
	var sum roundSum
	for i := range m.first {
		if s := &m.first[i]; s.res != nil {
			addResult(&sum.res, s.res)
			sum.runs++
			sum.desEvents += float64(s.desEvents)
			sum.heapMB = max(sum.heapMB, heapMB(s))
			sum.sharded = sum.sharded || s.shards > 1
		}
	}
	return sum
}

// perLayer computes the traced run's per-layer metrics: host CPU folded by
// layer, the benchmark's own spans around its public calls, and the
// modelled-hardware counters of core.Result.
func (m *measurement) perLayer() []metric {
	var out []metric
	var committed float64
	for _, ev := range perRun(m.traced, func(s *runStats) float64 { return float64(s.res.CommittedEvents) }) {
		committed += ev
	}
	var selfSum float64
	for _, l := range layers {
		v := ratio(float64(m.layerNs[l]), committed)
		selfSum += v
		out = append(out, metric{l + ".self_ns_per_event", "ns", v, "profile"})
	}

	var gcCPU, busyCPU, gcCycles, runs float64
	for _, r := range m.rounds {
		for i := range r {
			gcCPU += r[i].gcCPU
			busyCPU += r[i].busyCPU
			gcCycles += float64(r[i].gcCycles)
			runs++
		}
	}
	untraced := perEvent(m.rounds, wallNs)
	traced := perEvent(m.traced, wallNs)
	_, untracedScale := roundsCal(m.rounds)
	_, tracedScale := roundsCal(m.traced)
	out = append(out,
		metric{"runtime.gc_cpu_frac", "frac", ratio(gcCPU, busyCPU), "share of busy CPU, untraced rounds"},
		metric{"runtime.gc_cycles_per_run", "count", ratio(gcCycles, runs), "runtime/metrics, untraced rounds"},
		metric{"run.wall_ns_per_event", "ns", untraced, "raw host wall in Cluster.Run, untraced rounds"},
		metric{"trace.overhead_frac", "frac", ratio(traced*tracedScale, untraced*untracedScale) - 1,
			fmt.Sprintf("calibrated; sum of *.self_ns_per_event %.0f beside traced raw wall ns per event %.0f (untraced %.0f)",
				selfSum, traced, untraced)},
	)

	var oracleNs, oracleEvents float64
	builds := make([]float64, len(m.refs))
	for i, ref := range m.refs {
		builds[i] = float64(ref.buildNs) / 1e9
		oracleNs += float64(ref.oracleNs)
		oracleEvents += float64(ref.events)
	}
	oracle := ratio(oracleNs, oracleEvents)
	out = append(out,
		metric{"apps.build_s", "s", median(builds), "App.Build, median of sub-seeds"},
		metric{"oracle.ns_per_event", "ns", oracle, "timewarp.Sequential"},
		metric{"core.model_overhead_x", "x", ratio(untraced, oracle), "run.wall_ns_per_event / oracle.ns_per_event"},
	)

	first := m.firstRound()
	tot, n := &first.res, first.runs
	ev := float64(tot.CommittedEvents)
	per := func(x int64) float64 { return ratio(float64(x), ev) }
	mean := func(x float64) float64 { return ratio(x, float64(n)) }
	host := float64(tot.HostEventTime + tot.HostCommTime + tot.HostGVTTime + tot.HostRollbackTime)
	hostFrac := func(x int64) float64 { return ratio(float64(x), host) }
	model := []metric{
		{"timewarp.processed_per_event", "ratio", per(tot.ProcessedEvents), ""},
		{"timewarp.rollback_depth", "count", tot.RollbackDepth(), ""},
		{"hostmodel.util", "frac", mean(tot.HostUtil), ""},
		{"hostmodel.event_frac", "frac", hostFrac(int64(tot.HostEventTime)), ""},
		{"hostmodel.comm_frac", "frac", hostFrac(int64(tot.HostCommTime)), ""},
		{"hostmodel.gvt_frac", "frac", hostFrac(int64(tot.HostGVTTime)), ""},
		{"hostmodel.rollback_frac", "frac", hostFrac(int64(tot.HostRollbackTime)), ""},
		{"iobus.util", "frac", mean(tot.BusUtil), ""},
		{"iobus.crossings_per_event", "count", per(tot.BusCrossings), ""},
		{"nic.util", "frac", mean(tot.NICUtil), ""},
		{"nic.dropped_in_place_per_event", "count", per(tot.DroppedInPlace), ""},
		{"nic.drop_rate_pct", "%", tot.NICDropRate(), ""},
		{"nic.antis_filtered_per_event", "count", per(tot.AntisFiltered), ""},
		{"nic.batch_subs_per_frame", "count", ratio(float64(tot.BatchSubs), float64(tot.BatchFrames)), ""},
		{"simnet.wire_packets_per_event", "count", per(tot.WirePackets), ""},
		{"mpich.flow_blocked_per_event", "count", per(tot.FlowBlocked), ""},
		{"mpich.credit_msgs_per_event", "count", per(tot.CreditMsgs), ""},
		{"mpich.credit_refunds_per_event", "count", per(tot.CreditRepair), ""},
		{"bip.gaps_per_event", "count", per(tot.BIPGaps), ""},
		{"bip.outstanding", "count", mean(float64(tot.BIPOutstanding)), ""},
		{"gvt.rounds", "count", mean(float64(tot.GVTRounds)), ""},
		{"gvt.control_msgs_per_event", "count", per(tot.GVTControlMsgs), ""},
		{"gvt.piggybacks", "count", mean(float64(tot.GVTPiggybacks)), ""},
		{"gvt.tokens_on_nic", "count", mean(float64(tot.GVTTokensOnNIC)), ""},
		{"gvt.conv_avg_us", "us", float64(tot.GVTConvAvg()) / 1e3, ""},
	}
	for i := range model {
		model[i].note = "model, deterministic"
	}
	return append(out, model...)
}

// facts are the execution facts recorded with every result.
type facts struct {
	NumCPU     int      `json:"numcpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go"`
	Seed       uint64   `json:"seed"`
	SubSeeds   []uint64 `json:"sub_seeds"`
	Committed  []int    `json:"committed_events"`
	Shards     []int    `json:"shards"`
}

func (m *measurement) facts() facts {
	f := facts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       m.o.seed,
	}
	for k, cfg := range m.cfgs {
		f.SubSeeds = append(f.SubSeeds, cfg.Seed)
		f.Committed = append(f.Committed, m.refs[k].events)
		f.Shards = append(f.Shards, m.first[k].shards)
	}
	return f
}

// metrics returns the metrics of the run's mode: end-to-end untraced,
// per-layer traced.
func (m *measurement) metrics() []metric {
	if m.o.trace {
		return m.perLayer()
	}
	return m.endToEnd()
}

// writeReport prints the human-readable report of one workload.
func (m *measurement) writeReport(w io.Writer, ms []metric) {
	fmt.Fprintf(w, "workload %s: %s\n", m.w.name, m.w.why)
	fx, _ := json.Marshal(m.facts())
	fmt.Fprintf(w, "facts %s\n", fx)
	fmt.Fprintf(w, "fingerprint %016x (model counters and digest of %d sub-seeds; every run checked against its first)\n",
		m.runFingerprint(), len(m.cfgs))
	mode := "end-to-end, untraced"
	if m.o.trace {
		mode = fmt.Sprintf("per layer, %d untraced and %d traced rounds", len(m.rounds), len(m.traced))
	}
	fmt.Fprintf(w, "metrics (%s):\n", mode)
	for _, x := range ms {
		fmt.Fprintf(w, "  %-32s %-6s %16.6g  %s\n", x.name, x.unit, x.value, x.note)
	}
	for k := range m.cfgs {
		fmt.Fprintf(w, "  runs of sub-seed %d, raw wall ns per committed event:", k)
		for _, r := range m.rounds {
			if s := &r[k]; s.res != nil {
				fmt.Fprintf(w, " %.0f", ratio(wallNs(s), float64(s.res.CommittedEvents)))
			}
		}
		fmt.Fprintln(w)
	}
	failed := len(m.failures)
	fmt.Fprintf(w, "  %-32s %-6s %16.6g  %d of %d runs failed the oracle gate\n",
		"failed_frac", "frac", ratio(float64(failed), float64(m.attempted)), failed, m.attempted)
	for _, f := range m.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(prefix string, m *measurement, ms []metric) {
	r.Attempted += m.attempted
	r.Failed += len(m.failures)
	r.Correct = r.Failed == 0
	for _, x := range ms {
		r.Metrics[prefix+x.name] = metricValue{x.value, x.unit}
	}
}
