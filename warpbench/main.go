// Command warpbench is the repository's benchmark: host cost per committed
// Time Warp event on four oracle-checked workloads from the paper's
// evaluation, with a per-layer split in a separate traced run. See
// README.md for the workloads and the metrics.
//
// Usage:
//
//	warpbench --workload <name|all> [--seed n] [--seconds s] [--trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("warpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "benchmark seed; each sub-seed's Config.Seed is derived from it")
	seconds := fs.Float64("seconds", 10, "measurement time per workload (whole rounds, at least one)")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "warpbench:", err)
			return 2
		}
		ws = []workload{w}
	}
	return bench(ws, options{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1}, stdout, stderr)
}

// bench measures each workload, prints its report and ends with the JSON
// result line.
func bench(ws []workload, opts options, stdout, stderr io.Writer) int {
	res := result{Metrics: map[string]metricValue{}}
	for _, w := range ws {
		m, err := measure(w, opts)
		if err != nil {
			fmt.Fprintln(stderr, "warpbench:", err)
			return 1
		}
		ms := m.metrics()
		m.writeReport(stdout, ms)
		prefix := ""
		if len(ws) > 1 {
			prefix = w.name + "/"
		}
		res.add(prefix, m, ms)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "warpbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
