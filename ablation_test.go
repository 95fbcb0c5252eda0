package goldilocks

import (
	"testing"

	"goldilocks/internal/cluster"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// Ablations for the design choices DESIGN.md calls out: the 70% packing
// target and the locality-preserving assignment. Each ablation is a test
// (asserting the design choice earns its keep) plus a benchmark variant
// for the harness. The multilevel-refinement ablation needs the
// partitioner's internal stages and lives in internal/partition
// (TestAblationRefinement).

// ablationEpoch runs one Fig. 9-style epoch with the given policy and
// returns the report. burst scales the actual load relative to what the
// scheduler placed against (1.0 = steady state).
func ablationEpoch(t testing.TB, policy scheduler.Policy, loadFactor, burst float64) cluster.EpochReport {
	t.Helper()
	topo := topology.NewTestbed()
	spec := workload.TwitterWorkload(176, 1)
	for i := range spec.Containers {
		spec.Containers[i].Demand[0] *= 4.0 // the Fig. 9 CPU calibration
	}
	runner := cluster.NewRunner(topo, policy, cluster.DefaultOptions())
	rep, err := runner.RunEpoch(cluster.EpochInput{
		Spec: spec.Scaled(loadFactor), RPS: 440000 * loadFactor, Burst: burst,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestAblationPackingTarget validates the paper's central knob: packing to
// the 70% knee draws less power than packing to 95% (cubic region) AND
// less than stopping at 50% (idle-power waste) at representative load.
func TestAblationPackingTarget(t *testing.T) {
	at := func(target float64) float64 {
		rep := ablationEpoch(t, scheduler.Goldilocks{TargetUtil: target}, 0.8, 1.0)
		return rep.TotalPowerW
	}
	p50, p70, p95 := at(0.50), at(0.70), at(0.95)
	if p70 >= p95 {
		t.Errorf("packing to 70%% (%.0fW) must beat packing to 95%% (%.0fW): the cubic region costs", p70, p95)
	}
	if p70 >= p50 {
		t.Errorf("packing to 70%% (%.0fW) must beat stopping at 50%% (%.0fW): idle power costs", p70, p50)
	}
}

// TestAblationPackingTargetLatency validates the headroom half of the
// choice: when a correlated burst (§II: Pearson 0.6–0.8 across VMs) spikes
// actual load 30% above what the scheduler placed for, 95%-packed servers
// saturate while the 70% knee absorbs it.
func TestAblationPackingTargetLatency(t *testing.T) {
	const burst = 1.3
	t70 := ablationEpoch(t, scheduler.Goldilocks{TargetUtil: 0.70}, 0.8, burst).MeanTCTMS
	t95 := ablationEpoch(t, scheduler.Goldilocks{TargetUtil: 0.95}, 0.8, burst).MeanTCTMS
	if t70 >= t95 {
		t.Errorf("burst TCT at 70%% packing (%.2fms) must beat 95%% packing (%.2fms)", t70, t95)
	}
}

// scatteredGoldilocks is the locality ablation: it partitions exactly like
// Goldilocks but assigns groups to servers in a scattered order,
// destroying the left-most subtree locality while keeping identical
// packing density.
type scatteredGoldilocks struct{ inner scheduler.Goldilocks }

func (scatteredGoldilocks) Name() string { return "Goldilocks-scattered" }

func (s scatteredGoldilocks) Place(req scheduler.Request) (scheduler.Result, error) {
	res, err := s.inner.Place(req)
	if err != nil {
		return res, err
	}
	// Permute server ids with a fixed stride so adjacent groups land in
	// different racks (16 testbed servers, stride 5 is coprime).
	numServers := req.Topo.NumServers()
	perm := make([]int, numServers)
	for i := range perm {
		perm[i] = (i * 5) % numServers
	}
	for i, srv := range res.Placement {
		if srv >= 0 {
			res.Placement[i] = perm[srv]
		}
	}
	return res, nil
}

// TestAblationLocality shows the min-cut assignment is what buys the TCT
// win: the same groups scattered across racks lose it.
func TestAblationLocality(t *testing.T) {
	local := ablationEpoch(t, scheduler.Goldilocks{}, 0.8, 1.0)
	scattered := ablationEpoch(t, scatteredGoldilocks{}, 0.8, 1.0)
	if local.MeanTCTMS >= scattered.MeanTCTMS {
		t.Errorf("locality-preserving TCT %.2fms must beat scattered %.2fms",
			local.MeanTCTMS, scattered.MeanTCTMS)
	}
	// Power is about packing density, which is identical.
	if diff := local.ActiveServers - scattered.ActiveServers; diff != 0 {
		t.Errorf("scattering must not change the active-server count (diff %d)", diff)
	}
}

// BenchmarkAblationPackingTargets measures a Goldilocks epoch at the three
// packing targets — the system-level counterpart of the Fig. 2 'U' curve.
func BenchmarkAblationPackingTargets(b *testing.B) {
	for _, target := range []float64{0.50, 0.70, 0.95} {
		target := target
		b.Run(map[float64]string{0.5: "pack50", 0.7: "pack70", 0.95: "pack95"}[target], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ablationEpoch(b, scheduler.Goldilocks{TargetUtil: target}, 0.8, 1.0)
			}
		})
	}
}

// BenchmarkAblationLocality measures the locality-preserving vs scattered
// assignment.
func BenchmarkAblationLocality(b *testing.B) {
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ablationEpoch(b, scheduler.Goldilocks{}, 0.8, 1.0)
		}
	})
	b.Run("scattered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ablationEpoch(b, scatteredGoldilocks{}, 0.8, 1.0)
		}
	})
}
