package main

import (
	"reflect"
	"strings"

	"nicwarp/internal/core"
)

// layers are the repository modules the traced run splits host time
// across, in report order. runtime takes the samples with no simulator
// frame at all (garbage collection, the scheduler).
//
//nicwarp:sharded init-only report order, never written
var layers = []string{
	"des", "timewarp", "core", "nic", "firmware", "mpich", "bip", "gvt",
	"simnet", "proto", "hostmodel", "iobus", "apps", "runtime",
}

// layerOf maps a Go package path to its layer. Simulator packages that are
// not layers of their own (vtime, rng, stats, ...) map to "", so their
// frames are charged to the nearest calling layer.
func layerOf(pkg string) string {
	rest, ok := strings.CutPrefix(pkg, "nicwarp/internal/")
	if !ok {
		return ""
	}
	switch {
	case rest == "nic/firmware":
		return "firmware"
	case rest == "d4heap":
		return "timewarp"
	case strings.HasPrefix(rest, "apps/"):
		return "apps"
	}
	switch rest {
	case "des", "timewarp", "core", "nic", "mpich", "bip", "gvt",
		"simnet", "proto", "hostmodel", "iobus":
		return rest
	}
	return ""
}

// funcPackage returns the package path of a pprof function name such as
// "nicwarp/internal/des.(*Engine).Run" or
// "nicwarp/internal/d4heap.(*Heap[go.shape.int]).Push".
func funcPackage(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// runLabel marks the goroutines executing (*core.Cluster).Run in a traced
// round; only their samples, and samples with no frame from this module or
// the simulator (background GC), are folded.
const runLabel = "warpbench"

// foldProfile charges every folded sample to the innermost frame that
// belongs to a layer: runtime frames (allocation, write barriers, assists)
// count against the simulator frame that called them, and a sample with no
// simulator frame counts as runtime. It returns CPU nanoseconds per layer.
func foldProfile(p *profile) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		layer, ours := "", false
		for _, fn := range s.stack {
			pkg := funcPackage(fn)
			if strings.HasPrefix(pkg, "nicwarp/") || pkg == "nicwarp" || pkg == "main" {
				ours = true
			}
			if layer = layerOf(pkg); layer != "" {
				break
			}
		}
		if s.labels[runLabel] != "run" && ours {
			continue // set-up, the oracle, the heap sampler
		}
		if layer == "" {
			layer = "runtime"
		}
		out[layer] += s.cpuNs
	}
	return out
}

// addResult adds every numeric field of src into dst, so utilizations and
// times become totals over a round; per-cluster means divide by the
// round's cluster count.
func addResult(dst, src *core.Result) {
	d, v := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f, t := v.Field(i), d.Field(i); f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			t.SetInt(t.Int() + f.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			t.SetUint(t.Uint() + f.Uint())
		case reflect.Float32, reflect.Float64:
			t.SetFloat(t.Float() + f.Float())
		}
	}
}
