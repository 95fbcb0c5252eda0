package cluster

import (
	"testing"
	"time"

	"goldilocks/internal/chaos"
	"goldilocks/internal/partition"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/sim"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// placeLoads recomputes per-server loads from a report's placement inputs.
func placeLoads(spec *workload.Spec, placement []int, numServers int) []resources.Vector {
	loads := make([]resources.Vector, numServers)
	for i, s := range placement {
		if s >= 0 {
			loads[s] = loads[s].Add(spec.Containers[i].Demand)
		}
	}
	return loads
}

// recoveryOptions stretches the epoch to 10 minutes: re-pulling multi-GB
// container images over 1G NICs takes several minutes, and recovery is
// required to converge within one epoch.
func recoveryOptions() Options {
	opts := DefaultOptions()
	opts.EpochLength = 10 * time.Minute
	return opts
}

func TestRecoveryAfterRackFault(t *testing.T) {
	tp := topology.NewTestbed()
	spec := workload.MixtureWorkload(48, 7)
	r := NewRunner(tp, scheduler.Goldilocks{}, recoveryOptions())
	if _, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000}); err != nil {
		t.Fatal(err)
	}
	place0 := make(map[int]int, len(spec.Containers))
	for _, c := range spec.Containers {
		place0[c.ID] = r.prevPlace[c.ID]
	}

	// Anti-affinity precondition: no replica group may sit entirely in one
	// rack, or the rack fault below could not be survived.
	rackOf := func(server int) int { return server / 2 } // testbed: 8 racks × 2
	groups := make(map[string]map[int]bool)
	for _, c := range spec.Containers {
		if c.ReplicaGroup == "" {
			continue
		}
		if groups[c.ReplicaGroup] == nil {
			groups[c.ReplicaGroup] = make(map[int]bool)
		}
		groups[c.ReplicaGroup][rackOf(place0[c.ID])] = true
	}
	if len(groups) == 0 {
		t.Fatal("mixture workload must contain replica groups")
	}
	victimRack := -1
	for name, racks := range groups {
		if len(racks) < 2 {
			t.Fatalf("replica group %s confined to one rack: anti-affinity broken", name)
		}
		for rk := range racks {
			if victimRack < 0 || rk < victimRack {
				victimRack = rk // lowest candidate: keep the test deterministic
			}
		}
	}

	// Kill the rack as one fault domain.
	for s := victimRack * 2; s < victimRack*2+2; s++ {
		if err := tp.FailServer(s); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedServers != 2 {
		t.Fatalf("FailedServers = %d, want 2", rep.FailedServers)
	}

	// Expected displacement, derived independently from the old placement.
	wantDisplaced := 0
	for _, c := range spec.Containers {
		if tp.ServerFailed(place0[c.ID]) {
			wantDisplaced++
		}
	}
	if wantDisplaced == 0 {
		t.Fatal("the victim rack hosted nothing; test is vacuous")
	}
	if rep.DisplacedContainers != wantDisplaced {
		t.Fatalf("DisplacedContainers = %d, want %d", rep.DisplacedContainers, wantDisplaced)
	}
	if rep.DisplacedDemand.IsZero() {
		t.Fatal("displaced demand must be accounted")
	}

	// Recovery converges within the epoch: every displaced container is
	// re-placed on a surviving server, none rejected.
	for id, s := range r.prevPlace {
		if tp.ServerFailed(s) {
			t.Fatalf("container %d still placed on failed server %d", id, s)
		}
	}
	if rep.RecoveryMigrations != wantDisplaced {
		t.Fatalf("RecoveryMigrations = %d, want %d", rep.RecoveryMigrations, wantDisplaced)
	}
	if rep.AdmissionRejected != 0 {
		t.Fatalf("rejected %d containers; surviving capacity suffices", rep.AdmissionRejected)
	}
	if rep.RecoveryTimeS <= 0 || rep.RecoveryTimeS >= recoveryOptions().EpochLength.Seconds() {
		t.Fatalf("RecoveryTimeS = %v, want within (0, epoch)", rep.RecoveryTimeS)
	}

	// Anti-affinity pays off: the only units down are the non-replicated
	// casualties — every replica group failed over to a surviving member.
	wantDown := 0
	memberDown := make(map[string]int)
	memberTotal := make(map[string]int)
	for _, c := range spec.Containers {
		if c.ReplicaGroup == "" {
			if tp.ServerFailed(place0[c.ID]) {
				wantDown++
			}
			continue
		}
		memberTotal[c.ReplicaGroup]++
		if tp.ServerFailed(place0[c.ID]) {
			memberDown[c.ReplicaGroup]++
		}
	}
	for name, downN := range memberDown {
		if downN == memberTotal[name] {
			t.Fatalf("replica group %s lost every member to a single rack", name)
		}
	}
	if rep.GroupsDown != wantDown {
		t.Fatalf("GroupsDown = %d, want %d (non-replicated casualties only)", rep.GroupsDown, wantDown)
	}
	if rep.Availability >= 1 && wantDown > 0 {
		t.Fatal("downed singletons must cost availability")
	}
	if rep.Availability <= 0.5 {
		t.Fatalf("Availability = %v, recovery should keep most units up", rep.Availability)
	}

	// Migration accounting covers the recovery moves.
	if rep.Migrations < rep.RecoveryMigrations {
		t.Fatalf("Migrations = %d < RecoveryMigrations = %d", rep.Migrations, rep.RecoveryMigrations)
	}
}

func TestPlacementRespectsSpillCeiling(t *testing.T) {
	tp := topology.NewTestbed()
	// CPU-heavy uniform workload sized against the testbed's 3200-CPU
	// servers: 130 × 160 = 20800 total CPU. All 16 servers at the 0.70
	// knee offer 35840 usable CPU (fits); the 8 survivors below offer
	// 17920 at 0.70 and 20480 at 0.80 (both short) but 23040 at 0.90, so
	// the ladder must spill to exactly the rung that avoids rejection.
	spec := &workload.Spec{}
	for i := 0; i < 130; i++ {
		spec.Containers = append(spec.Containers, workload.Container{
			ID: i, App: workload.NaiveBayes, Demand: resources.New(160, 512, 5),
		})
	}
	r := NewRunner(tp, scheduler.Goldilocks{}, DefaultOptions())
	rep0, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep0.SpillTarget != 0.70 {
		t.Fatalf("healthy SpillTarget = %v, want the 0.70 PEE knee", rep0.SpillTarget)
	}

	// Shrink the cluster until the knee cannot hold: the ladder must spill
	// above 0.70 rather than reject, and the packing must still respect
	// the relaxed ceiling it reports.
	for s := 0; s < 8; s++ {
		if err := tp.FailServer(s); err != nil {
			t.Fatal(err)
		}
	}
	rep1, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.SpillTarget <= 0.70 || rep1.SpillTarget > 0.95 {
		t.Fatalf("SpillTarget = %v, want a spill in (0.70, 0.95]", rep1.SpillTarget)
	}
	if rep1.AdmissionRejected != 0 {
		t.Fatal("spill should suffice; admission control is the last resort")
	}

	placement := make([]int, len(spec.Containers))
	for i, c := range spec.Containers {
		placement[i] = r.prevPlace[c.ID]
	}
	loads := placeLoads(spec, placement, tp.NumServers())
	caps := resources.UtilizationCaps(rep1.SpillTarget)
	for s, load := range loads {
		usable := tp.Capacity[s].PerDimScale(caps)
		for d := range load {
			if load[d] > usable[d]+1e-6 {
				t.Fatalf("server %d dim %d: load %v exceeds spill ceiling %v", s, d, load[d], usable[d])
			}
		}
	}

	// The spill is visible in power: past the knee the cubic DVFS term
	// makes each active server strictly costlier than at the PEE point.
	perServer0 := rep0.ServerPowerW / float64(rep0.ActiveServers)
	perServer1 := rep1.ServerPowerW / float64(rep1.ActiveServers)
	if perServer1 <= perServer0 {
		t.Fatalf("per-server power %v W at spill should exceed %v W at the knee", perServer1, perServer0)
	}
}

func TestFailedServersDrawNoPower(t *testing.T) {
	tp := topology.NewTestbed()
	spec := workload.TwitterWorkload(24, 3)
	r := NewRunner(tp, scheduler.EPVM{}, DefaultOptions())
	rep0, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 500})
	if err != nil {
		t.Fatal(err)
	}
	if rep0.ActiveServers != 16 {
		t.Fatalf("E-PVM keeps all 16 servers on, got %d", rep0.ActiveServers)
	}
	for s := 0; s < 4; s++ {
		if err := tp.FailServer(s); err != nil {
			t.Fatal(err)
		}
	}
	rep1, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 500})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.ActiveServers != 12 {
		t.Fatalf("ActiveServers = %d, want 12 (dead machines are off, not idle)", rep1.ActiveServers)
	}
}

func TestColocatedReplicasLoseAvailability(t *testing.T) {
	// Borg packs replicas of one trio onto few servers (no anti-affinity):
	// find a rack fully hosting a trio; killing it must take the whole
	// group down and cost strictly more availability than Goldilocks loses
	// under the same fault.
	spec := workload.MixtureWorkload(48, 7)
	rackOf := func(server int) int { return server / 2 }

	run := func(policy scheduler.Policy, victimFor string) (EpochReport, int) {
		tp := topology.NewTestbed()
		r := NewRunner(tp, policy, DefaultOptions())
		if _, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000}); err != nil {
			t.Fatal(err)
		}
		// Pick the victim rack: for Borg, one hosting an entire replica
		// group (it colocates); for Goldilocks, any rack hosting a group
		// member (anti-affinity spread them).
		byGroup := make(map[string][]int)
		for _, c := range spec.Containers {
			if c.ReplicaGroup != "" {
				byGroup[c.ReplicaGroup] = append(byGroup[c.ReplicaGroup], r.prevPlace[c.ID])
			}
		}
		victim := -1
		pick := func(rk int) {
			if victim < 0 || rk < victim {
				victim = rk // lowest candidate: deterministic
			}
		}
		for _, servers := range byGroup {
			racks := make(map[int]bool)
			for _, s := range servers {
				racks[rackOf(s)] = true
			}
			for rk := range racks {
				if victimFor == "colocated" && len(racks) == 1 {
					pick(rk)
				}
				if victimFor == "spread" && len(racks) > 1 {
					pick(rk)
				}
			}
		}
		if victim < 0 {
			t.Fatalf("no %s replica group found for %s", victimFor, policy.Name())
		}
		for s := victim * 2; s < victim*2+2; s++ {
			if err := tp.FailServer(s); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return rep, victim
	}

	goldRep, _ := run(scheduler.Goldilocks{}, "spread")
	for _, baseline := range []scheduler.Policy{scheduler.MPP{}, scheduler.Borg{}, scheduler.RCInformed{}} {
		rep, _ := run(baseline, "colocated")
		if rep.GroupsDown == 0 {
			t.Fatalf("%s: killing a colocated trio's rack must take the group down", baseline.Name())
		}
		if goldRep.Availability <= rep.Availability {
			t.Fatalf("anti-affinity availability %v must beat %s's colocated %v",
				goldRep.Availability, baseline.Name(), rep.Availability)
		}
	}
}

// TestEpochReportStreamParallelismInvariant is the PR's determinism
// regression: one seeded fault schedule, replayed through the injector
// against Goldilocks at partitioner parallelism 1, 4 and 8, must produce a
// bit-identical EpochReport stream. EpochReport is a comparable struct
// (plain fields and fixed-size vectors), so != is an exact bit comparison.
func TestEpochReportStreamParallelismInvariant(t *testing.T) {
	const epochs = 8
	cfg := chaos.GenConfig{
		Seed:              77,
		Horizon:           epochs * 10 * time.Minute,
		MTTF:              30 * time.Minute,
		MTTR:              15 * time.Minute,
		BurstSize:         2,
		RackFaultFraction: 0.3,
		StragglerFraction: 0.2,
		LinkFaultFraction: 0.1,
	}
	sched, err := chaos.Generate(topology.NewTestbed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Faults) == 0 {
		t.Fatal("fault schedule is empty; the invariant would be vacuous")
	}

	run := func(parallelism int) []EpochReport {
		popts := partition.DefaultOptions()
		popts.Parallelism = parallelism
		tp := topology.NewTestbed()
		inj, err := chaos.NewInjector(&sim.Engine{}, tp, sched)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(tp, scheduler.Goldilocks{Partition: popts}, recoveryOptions())
		spec := workload.MixtureWorkload(48, 7)
		reps := make([]EpochReport, 0, epochs)
		for e := 0; e < epochs; e++ {
			inj.AdvanceTo(time.Duration(e) * 10 * time.Minute)
			rep, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000})
			if err != nil {
				t.Fatalf("parallelism %d epoch %d: %v", parallelism, e, err)
			}
			reps = append(reps, rep)
		}
		return reps
	}

	base := run(1)
	for _, p := range []int{4, 8} {
		got := run(p)
		for e := range base {
			if got[e] != base[e] {
				t.Fatalf("parallelism %d epoch %d diverges:\n%+v\n%+v", p, e, got[e], base[e])
			}
		}
	}
}

func TestRecoveryReportDeterministic(t *testing.T) {
	run := func() []EpochReport {
		tp := topology.NewTestbed()
		spec := workload.MixtureWorkload(48, 7)
		r := NewRunner(tp, scheduler.Goldilocks{}, DefaultOptions())
		var reps []EpochReport
		rep, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000})
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		for s := 0; s < 3; s++ {
			if err := tp.FailServer(s); err != nil {
				t.Fatal(err)
			}
		}
		rep, err = r.RunEpoch(EpochInput{Spec: spec, RPS: 1000})
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		return reps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d reports differ:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// placeCounter counts the wrapped policy's successful Place calls.
type placeCounter struct {
	scheduler.Policy
	placed int
}

func (p *placeCounter) Place(req scheduler.Request) (scheduler.Result, error) {
	res, err := p.Policy.Place(req)
	if err == nil {
		p.placed++
	}
	return res, err
}

// TestRecoveryShedAttemptsRepairFromCarried replays the chaos sweep's
// MTTF 3.0 cells (burst 1 and 3, at goldilocks-sim's seed 13 and
// DefaultChaos's seed 29) against the incremental policy. In the epochs
// where admission control sheds after two or more successful attempts,
// every attempt must repair from the placement the last epoch ran: the
// epoch's placement is exactly what the policy makes of the final
// sub-spec and that placement, not a repair of an earlier attempt's
// output.
func TestRecoveryShedAttemptsRepairFromCarried(t *testing.T) {
	opts := recoveryOptions()
	const epochs = 12
	checked := 0
	for _, seed := range []int64{13, 29} {
		for cell, burst := range []int{1, 3} {
			sched, err := chaos.Generate(topology.NewTestbed(), chaos.GenConfig{
				Seed:              seed + int64(101*(2+cell)), // the sweep's third and fourth cells
				Horizon:           epochs * opts.EpochLength,
				MTTF:              3 * opts.EpochLength,
				MTTR:              opts.EpochLength * 3 / 2,
				BurstSize:         burst,
				RackFaultFraction: 0.25,
				StragglerFraction: 0.15,
				LinkFaultFraction: 0.10,
			})
			if err != nil {
				t.Fatal(err)
			}
			tp := topology.NewTestbed()
			inj, err := chaos.NewInjector(&sim.Engine{}, tp, sched)
			if err != nil {
				t.Fatal(err)
			}
			spec := workload.MixtureWorkload(48, seed)
			pol := &placeCounter{Policy: &scheduler.IncrementalGoldilocks{}}
			r := NewRunner(tp, pol, opts)
			for e := 0; e < epochs; e++ {
				inj.AdvanceTo(time.Duration(e) * opts.EpochLength)
				carried := r.Carried(spec)
				pol.placed = 0
				rep, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000})
				if err != nil {
					t.Fatalf("seed %d burst %d epoch %d: %v", seed, burst, e, err)
				}
				if rep.AdmissionRejected == 0 || pol.placed < 2 {
					continue
				}
				final := r.Carried(spec)
				drop := make([]bool, len(final))
				for i, s := range final {
					drop[i] = s < 0
				}
				sub, kept := subSpec(spec, drop)
				subCarried := make([]int, len(kept))
				for ki, oi := range kept {
					subCarried[ki] = carried[oi]
				}
				want, err := (&scheduler.IncrementalGoldilocks{}).Place(scheduler.Request{Spec: sub, Topo: tp, Carried: subCarried})
				if err != nil {
					t.Fatalf("seed %d burst %d epoch %d: the final sub-spec does not fit a repair of the carried placement: %v", seed, burst, e, err)
				}
				for ki, oi := range kept {
					if final[oi] != want.Placement[ki] {
						t.Errorf("seed %d burst %d epoch %d: container %d on server %d, a repair of the carried placement puts it on %d",
							seed, burst, e, spec.Containers[oi].ID, final[oi], want.Placement[ki])
					}
				}
				checked++
			}
		}
	}
	if checked < 3 {
		t.Fatalf("%d epochs shed after two successful attempts, want 3: the cells no longer exercise admission control", checked)
	}
}
