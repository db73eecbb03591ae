package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"nicwarp/internal/core"
)

// tinyScale shrinks every workload to a round of a few hundred
// milliseconds.
const tinyScale = 0.05

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

func TestSpecListsTheWorkloads(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := s.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("BENCHMARK.json workload %d = %q (%q), want %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
}

// TestEveryWorkloadPrintsEveryMetric runs every workload at a tiny size in
// both modes and checks the result line carries exactly the metrics
// BENCHMARK.json names, with their units, and that the human report names
// each of them too.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, mode := range []struct {
			trace bool
			want  []struct{ Name, Unit string }
		}{{false, s.EndToEnd}, {true, s.PerLayer}} {
			var out, errOut bytes.Buffer
			opts := options{seed: 3, trace: mode.trace, scale: tinyScale}
			if code := bench([]workload{w}, opts, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", w.name, mode.trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, mode.trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, mode.trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, mode.trace, len(res.Metrics), len(mode.want))
			}
			report := strings.Join(lines[:len(lines)-1], "\n")
			for _, m := range mode.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, mode.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, mode.trace, m.Name, got.Unit, m.Unit)
				}
				if !strings.Contains(report, m.Name) {
					t.Errorf("%s trace=%v: report does not name %s", w.name, mode.trace, m.Name)
				}
			}
			if !strings.Contains(report, "failed_frac") {
				t.Errorf("%s trace=%v: report does not print failed_frac", w.name, mode.trace)
			}
		}
	}
}

// TestTamperedReferenceFails proves the oracle gate bites: with every
// reference digest corrupted, every run must count as failed.
func TestTamperedReferenceFails(t *testing.T) {
	w, err := workloadByName("raid-hostgvt")
	if err != nil {
		t.Fatal(err)
	}
	m, err := measure(w, options{seed: 1, scale: tinyScale, tamper: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.attempted == 0 || len(m.failures) != m.attempted {
		t.Fatalf("%d of %d runs failed, want all", len(m.failures), m.attempted)
	}
	for _, f := range m.failures {
		if !strings.Contains(f, "digest") {
			t.Errorf("failure %q does not name the digest", f)
		}
	}
}

func TestGate(t *testing.T) {
	ref := reference{events: 10, digest: 7}
	ok := core.Result{CommittedEvents: 10, Digest: 7, DroppedInPlace: 3, AntisFiltered: 3, BIPOutstanding: 6}
	if why := gate(&ok, nil, ref); why != "" {
		t.Fatalf("matching run failed: %s", why)
	}
	for name, mutate := range map[string]func(*core.Result){
		"committed": func(r *core.Result) { r.CommittedEvents++ },
		"digest":    func(r *core.Result) { r.Digest++ },
		"evictions": func(r *core.Result) { r.DropBufEvictions = 1 },
		"orphans":   func(r *core.Result) { r.OrphanAntis = 1 },
		"holes":     func(r *core.Result) { r.BIPOutstanding++ },
	} {
		r := ok
		mutate(&r)
		if gate(&r, nil, ref) == "" {
			t.Errorf("%s: gate passed a deviating run", name)
		}
	}
}

func TestFingerprintCoversCounters(t *testing.T) {
	a := core.Result{CommittedEvents: 10, Digest: 7, NICUtil: 0.5}
	b := a
	if fingerprint(&a) != fingerprint(&b) {
		t.Fatal("equal results hash differently")
	}
	b.WirePackets++
	if fingerprint(&a) == fingerprint(&b) {
		t.Error("fingerprint ignores WirePackets")
	}
	b = a
	b.NICUtil = 0.25
	if fingerprint(&a) == fingerprint(&b) {
		t.Error("fingerprint ignores NICUtil")
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: warpbench
Type: cpu
Duration: 1s, Total samples = 30000000ns ( 3.00%)
-----------+-------------------------------------------------------
 warpbench:  run
  20000000ns   nicwarp/internal/d4heap.(*Heap[go.shape.int]).Push (inline)
             nicwarp/internal/timewarp.(*Kernel).Step
-----------+-------------------------------------------------------
  10000000ns   runtime.gcBgMarkWorker
`
	p, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 2 {
		t.Fatalf("%d samples, want 2: %+v", len(p.samples), p.samples)
	}
	a, b := p.samples[0], p.samples[1]
	if a.cpuNs != 20000000 || a.labels[runLabel] != "run" || len(a.stack) != 2 ||
		a.stack[0] != "nicwarp/internal/d4heap.(*Heap[go.shape.int]).Push" {
		t.Errorf("first sample = %+v", a)
	}
	if b.cpuNs != 10000000 || b.labels != nil || len(b.stack) != 1 || b.stack[0] != "runtime.gcBgMarkWorker" {
		t.Errorf("second sample = %+v", b)
	}
	if _, err := parseTraces("not a profile"); err == nil {
		t.Error("parsed text without a CPU profile header")
	}
}

func TestFoldChargesInnermostLayer(t *testing.T) {
	run := map[string]string{runLabel: "run"}
	p := &profile{samples: []profSample{
		{stack: []string{"runtime.mallocgc", "nicwarp/internal/vtime.Cycles", "nicwarp/internal/nic/firmware.(*CancelFirmware).OnSend", "nicwarp/internal/core.(*Cluster).Run"}, cpuNs: 1, labels: run},
		{stack: []string{"nicwarp/internal/d4heap.(*Heap[go.shape.*uint8]).Push", "nicwarp/internal/timewarp.(*Kernel).Step"}, cpuNs: 2, labels: run},
		{stack: []string{"nicwarp/internal/apps/police.(*Station).Handle"}, cpuNs: 4, labels: run},
		{stack: []string{"runtime.gcBgMarkWorker"}, cpuNs: 8},
		{stack: []string{"nicwarp/internal/core.NewClusterExec", "main.runOnce"}, cpuNs: 16},
	}}
	got := foldProfile(p)
	want := map[string]int64{"firmware": 1, "timewarp": 2, "apps": 4, "runtime": 8}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("fold[%s] = %d, want %d (all: %v)", l, got[l], ns, got)
		}
	}
}

func TestCalibration(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if passes := c.run(0); len(passes) != 1 || passes[0][0] <= 0 || passes[0][1] <= 0 || passes[0][2] <= 0 {
		t.Fatalf("run(0) = %v, want one timed pass", passes)
	}
	var spent float64
	for _, p := range c.run(calRefNs / calShare * 3) {
		for _, ns := range p {
			spent += ns
		}
	}
	if spent < calRefNs*3 {
		t.Errorf("passes span %.0f ns, want at least %.0f", spent, calRefNs*3)
	}
	passes := []calPass{{7e6, 14e6, 3.5e6}, {1, 14e6, 3.5e6}, {7e6, 1e9, 1e9}}
	if got := calScale(passes); math.Abs(got-1) > 1e-9 {
		t.Errorf("calScale(%v) = %v, want 1 (geometric mean of 1, 1/2 and 2)", passes, got)
	}
	slow := []calPass{{14e6, 14e6, 14e6}}
	if got, want := calScale(slow), math.Pow(0.5, calExponent); math.Abs(got-want) > 1e-9 {
		t.Errorf("calScale(%v) = %v, want %v", slow, got, want)
	}
}
