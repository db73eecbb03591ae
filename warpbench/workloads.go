package main

import (
	"fmt"

	"nicwarp"
	"nicwarp/internal/core"
	"nicwarp/internal/rng"
	"nicwarp/internal/vtime"
)

// workload is one named input family of the benchmark. A run measures
// rounds; a round executes one cluster per sub-seed. Mixing several
// sub-seeds into every round keeps the per-event figures of two --seed
// values close: a single seed's rollback count, and with it the host cost
// per committed event, moves by up to ten percent between seeds at these
// sizes.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	// size is the application's size knob at scale 1 (requests, stations
	// or hops per object).
	size int
	// subSeeds is the number of clusters per round.
	subSeeds int
	// config builds the cluster configuration for one sub-seed.
	config func(size int, seed uint64) core.Config
}

// workloads lists the benchmark's workloads. Every one runs serially: the
// benchmark passes a zero core.Exec, so the program's own default picks the
// shard count.
//
//nicwarp:sharded init-only workload table, never written
var workloads = []workload{
	// raid-hostgvt is the Fig. 4 point at GVT period 1 with WARPED's
	// host-resident Mattern GVT: the baseline that Fig. 4's NIC-GVT speedup
	// is measured against. 3000 requests, against fig4's 20000.
	// Dominant layers, traced at this size: des (37% of profiled CPU) and
	// gvt (31%, the host ledger); 23 allocations and 3.6 events processed
	// per committed event.
	// Bypasses: early cancellation, NIC-resident GVT and batching.
	{
		name:     "raid-hostgvt",
		why:      "Fig. 4 baseline: host Mattern GVT every event on RAID; stresses des and the host gvt ledger, no cancel or batching",
		size:     3000,
		subSeeds: 8,
		config: func(size int, seed uint64) core.Config {
			return core.Config{
				App:       nicwarp.RAID(nicwarp.RAIDGVTConfig(size)),
				Nodes:     8,
				Seed:      seed,
				GVT:       core.GVTHostMattern,
				GVTPeriod: 1,
			}
		},
	},
	// police-cancel is the Fig. 7/8 configuration at 150 stations (fig78
	// sweeps 900 to 4000): POLICE with the paper's early cancellation
	// firmware and the repository's default drop buffer
	// (nic.DefaultDropBufferCap, 256 entries; the paper's figures use
	// 10). It is rollback-heavy: 27 events processed and about 510 DES
	// events fired per committed event.
	// Dominant layers, traced at this size: des (29% of profiled CPU),
	// nic (15%), core (13%), timewarp (12%), firmware+bip+mpich (18%)
	// and the Go runtime (8%; GC takes 7% of busy CPU at about 310
	// allocations per committed event).
	// Bypasses: NIC-resident GVT and batching.
	{
		name:     "police-cancel",
		why:      "Fig. 7/8 early-cancel configuration on POLICE: rollback-heavy, stresses firmware, bip, mpich and GC; no NIC GVT or batching",
		size:     150,
		subSeeds: 6,
		config: func(size int, seed uint64) core.Config {
			return core.Config{
				App:         nicwarp.Police(nicwarp.PoliceConfig(size)),
				Nodes:       8,
				Seed:        seed,
				GVT:         core.GVTHostMattern,
				GVTPeriod:   1000,
				EarlyCancel: true,
			}
		},
	},
	// police-offload is the abl-batching batch=8 point: the same POLICE
	// app with every NIC offload on — NIC ring GVT, early cancellation,
	// batch frames of up to 8 sub-messages with a 20us flush horizon, and
	// the 4096-entry drop buffer abl-batching sets for every variant it
	// checks against the oracle. It is the only workload that carries
	// KindBatch frames through BatchFirmware. 600 stations, against the
	// ablation's 900.
	// Dominant layers, traced at this size: des (29% of profiled CPU) and
	// timewarp (22%), then nic and core (12% each); 10 allocations and
	// 2.5 events processed per committed event, so a cancel-path gain that
	// costs the batched path shows here.
	// Bypasses: the host GVT ledger.
	{
		name:     "police-offload",
		why:      "POLICE with every NIC offload on (ring NIC GVT, early cancel, batch=8); stresses timewarp and the batched nic path",
		size:     600,
		subSeeds: 8,
		config: func(size int, seed uint64) core.Config {
			cfg := core.Config{
				App:           nicwarp.Police(nicwarp.PoliceConfig(size)),
				Nodes:         8,
				Seed:          seed,
				GVT:           core.GVTNIC,
				GVTPeriod:     100,
				EarlyCancel:   true,
				DropBufferCap: 4096,
			}.WithDefaults()
			cfg.NIC.BatchMax = 8
			cfg.NIC.FlushHorizon = 20 * vtime.Microsecond
			return cfg
		},
	},
	// phold-fattree256 is a figscale point: PHOLD with two objects per
	// node on a 256-node fat tree under tree-reduction NIC GVT. It is the
	// only large-N workload and the only one where sharding pays. 16 hops
	// per object, against figscale's 30.
	// Dominant layers, traced at this size: des (44% of profiled CPU) and
	// timewarp (13%), then the per-peer state of core, mpich, bip and
	// simnet (22% together) over multi-stage fabric paths; 12 allocations
	// per committed event.
	// Bypasses: early cancellation, batching and the host GVT ledger.
	{
		name:     "phold-fattree256",
		why:      "PHOLD on a 256-node fat tree with tree NIC GVT; the large-N case for per-peer state, multi-stage simnet and set-up",
		size:     16,
		subSeeds: 16,
		config: func(size int, seed uint64) core.Config {
			net := core.Config{}.WithDefaults().Net
			net.Topology = nicwarp.TopoFatTree
			return core.Config{
				App: nicwarp.PHOLD(nicwarp.PHOLDParams{
					Objects: 512, Population: 1, Hops: size, MeanDelay: 50, Locality: 0.2,
				}),
				Nodes:     256,
				Seed:      seed,
				GVT:       core.GVTNICTree,
				GVTPeriod: 100,
				Net:       net,
			}
		},
	},
}

// workloadByName resolves a workload name.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// configs returns the round's cluster configurations for a benchmark seed:
// sub-seed k feeds Config.Seed with an independent stream derived from
// (seed, k), so distinct benchmark seeds share no input. scale multiplies
// the size knob (tests run tiny rounds).
func (w workload) configs(seed uint64, scale float64) []core.Config {
	size := int(float64(w.size) * scale)
	if size < 1 {
		size = 1
	}
	cfgs := make([]core.Config, w.subSeeds)
	for k := range cfgs {
		src := rng.NewFor(seed, uint64(k))
		cfgs[k] = w.config(size, src.Uint64())
	}
	return cfgs
}
