package goldilocks

import (
	"testing"

	"goldilocks/internal/cluster"
	"goldilocks/internal/migrate"
	"goldilocks/internal/monitor"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// TestFullControlLoop exercises the complete §V management-node pipeline
// end to end, the way the real system runs each epoch:
//
//	measure (monitor) → partition & place (scheduler) →
//	account power/TCT (cluster) → migrate the diff (migrate).
//
// The measured workload — reconstructed only from observed flows and noisy
// utilization samples — must lead Goldilocks to a placement of the same
// quality as scheduling on ground truth.
func TestFullControlLoop(t *testing.T) {
	topo := topology.NewTestbed()
	truth := workload.TwitterWorkload(120, 11)

	// Epoch 1: the monitor watches the wire and the metric files.
	coll := monitor.NewCollector(truth.NumContainers(), monitor.DefaultOptions())
	for _, f := range truth.Flows {
		for k := 0; k < int(f.Count/10); k++ { // sampled at 1:10
			if err := coll.ObserveFlow(f.A, f.B); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 5; round++ {
		for i, c := range truth.Containers {
			noise := 1 + 0.05*float64((i+round)%5-2)
			if err := coll.ObserveUtilization(i, c.Demand.Scale(noise)); err != nil {
				t.Fatal(err)
			}
		}
	}
	measured := coll.Spec()

	// Schedule on the measured view; account against the true demand.
	policy := scheduler.Goldilocks{}
	resMeasured, err := policy.Place(scheduler.Request{Spec: measured, Topo: topo})
	if err != nil {
		t.Fatalf("placement on measured workload: %v", err)
	}
	resTruth, err := policy.Place(scheduler.Request{Spec: truth, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}

	// Quality parity: within one server of the ground-truth placement and
	// no capacity violation against the *true* demand.
	nm := resMeasured.NumActive(topo.NumServers())
	nt := resTruth.NumActive(topo.NumServers())
	if nm > nt+2 || nm < nt-2 {
		t.Fatalf("measured-view placement uses %d servers vs ground truth %d", nm, nt)
	}
	loads := make([]resources.Vector, topo.NumServers())
	for i, s := range resMeasured.Placement {
		loads[s] = loads[s].Add(truth.Containers[i].Demand)
	}
	for s, load := range loads {
		u := load.Utilization(topo.Capacity[s])
		if u[resources.CPU] > 0.80 { // 70% target + measurement noise margin
			t.Fatalf("server %d at %.0f%% true CPU from measured-view placement", s, u[resources.CPU]*100)
		}
	}

	// Epoch 2: the workload doubles; the runner accounts the new epoch
	// and the migration subsystem prices the placement diff.
	runner := cluster.NewRunner(topo, policy, cluster.DefaultOptions())
	if _, err := runner.RunEpoch(cluster.EpochInput{Spec: truth, RPS: 100000}); err != nil {
		t.Fatal(err)
	}
	grown := truth.Scaled(2.0)
	rep, err := runner.RunEpoch(cluster.EpochInput{Spec: grown, RPS: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ActiveServers <= nm {
		t.Fatalf("doubled load should need more servers: %d vs %d", rep.ActiveServers, nm)
	}

	resGrown, err := policy.Place(scheduler.Request{Spec: grown, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	moves, err := migrate.PlanMoves(grown, resTruth.Placement, resGrown.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("a doubled workload must move some containers")
	}
	mrep := migrate.Simulate(topo, migrate.Schedule(moves), migrate.Options{})
	if mrep.Duration <= 0 || mrep.TotalFreeze <= 0 {
		t.Fatalf("migration report incomplete: %+v", mrep)
	}
	if mrep.MaxFreeze.Seconds() > 5 {
		t.Fatalf("per-container freeze %v implausibly long for sub-4GB images", mrep.MaxFreeze)
	}
}
