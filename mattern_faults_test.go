package nicwarp

import (
	"testing"

	"nicwarp/internal/apps/phold"
	"nicwarp/internal/apps/raid"
	"nicwarp/internal/core"
	"nicwarp/internal/fault"
)

// TestHostMatternUnderFaults crosses the host-resident Mattern GVT — its
// wave ledger and in-place token forwarding — with the fault plane.
// stress.Options cannot select host Mattern (it is GVTMode's zero value),
// so the configurations are built here directly. GVTPeriod 1 keeps a
// backlog of concurrent waves on the ring, and the plans duplicate and
// reorder tokens as well as events; every point must commit exactly the
// fault-free digest with no invariant oracle firing.
func TestHostMatternUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-plane sweep")
	}
	apps := []struct {
		name  string
		build func() core.App
	}{
		{"raid", func() core.App { return raid.New(raid.CancelConfig(400)) }},
		{"phold", func() core.App {
			return phold.New(phold.Params{Objects: 16, Population: 1, Hops: 60, MeanDelay: 40, Locality: 0.2})
		}},
	}
	cfgFor := func(app core.App, plan fault.Plan) core.Config {
		return core.Config{
			App:             app,
			Nodes:           4,
			Seed:            7,
			GVT:             core.GVTHostMattern,
			GVTPeriod:       1,
			CheckInvariants: true,
			Fault:           plan,
		}
	}
	for _, a := range apps {
		base, err := Run(cfgFor(a.build(), fault.Plan{}))
		if err != nil {
			t.Fatalf("%s fault-free: %v", a.name, err)
		}
		for _, scenario := range []string{"drop", "dup", "chaos"} {
			for _, seed := range []uint64{1, 2} {
				plan, err := fault.PlanFor(scenario, seed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cfgFor(a.build(), plan))
				if err != nil {
					t.Errorf("%s/%s/seed%d: %v", a.name, scenario, seed, err)
					continue
				}
				if rep := res.Invariants; rep.Failed() {
					t.Errorf("%s/%s/seed%d: invariant violations %v", a.name, scenario, seed, rep.Violations)
				}
				if res.Digest != base.Digest {
					t.Errorf("%s/%s/seed%d: digest %x, fault-free %x", a.name, scenario, seed, res.Digest, base.Digest)
				}
			}
		}
	}
}
