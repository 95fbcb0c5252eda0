package scheduler

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"goldilocks/internal/partition"
	"goldilocks/internal/power"
	"goldilocks/internal/resources"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

func powerWedge() power.SwitchModel { return power.Wedge }

// allPolicies returns every implemented policy with paper defaults.
func allPolicies() []Policy {
	return []Policy{EPVM{}, MPP{}, Borg{}, RCInformed{}, Goldilocks{}}
}

func testbedRequest(t *testing.T, n int) Request {
	t.Helper()
	return Request{
		Spec: workload.TwitterWorkload(n, 1),
		Topo: topology.NewTestbed(),
	}
}

// checkPlacementComplete verifies every container landed on a valid server.
func checkPlacementComplete(t *testing.T, req Request, res Result) {
	t.Helper()
	if len(res.Placement) != req.Spec.NumContainers() {
		t.Fatalf("placement length %d for %d containers", len(res.Placement), req.Spec.NumContainers())
	}
	for i, s := range res.Placement {
		if s < 0 || s >= req.Topo.NumServers() {
			t.Fatalf("container %d on invalid server %d", i, s)
		}
	}
}

// serverLoads reconstructs per-server demand sums from a placement.
func serverLoads(req Request, res Result) []resources.Vector {
	loads := make([]resources.Vector, req.Topo.NumServers())
	for i, s := range res.Placement {
		loads[s] = loads[s].Add(req.Spec.Containers[i].Demand)
	}
	return loads
}

func TestAllPoliciesPlaceTestbedWorkload(t *testing.T) {
	req := testbedRequest(t, 176)
	for _, p := range allPolicies() {
		t.Run(p.Name(), func(t *testing.T) {
			res, err := p.Place(req)
			if err != nil {
				t.Fatal(err)
			}
			checkPlacementComplete(t, req, res)
		})
	}
}

func TestAllPoliciesRejectNilRequest(t *testing.T) {
	for _, p := range allPolicies() {
		if _, err := p.Place(Request{}); err == nil {
			t.Errorf("%s accepted a nil request", p.Name())
		}
	}
}

func TestEPVMKeepsAllServersOn(t *testing.T) {
	req := testbedRequest(t, 40)
	res, err := EPVM{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllServersOn {
		t.Fatal("E-PVM never powers servers down")
	}
	if got := res.NumActive(req.Topo.NumServers()); got != 16 {
		t.Fatalf("active = %d, want all 16", got)
	}
}

func TestEPVMSpreadsLoad(t *testing.T) {
	req := testbedRequest(t, 160)
	res, err := EPVM{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	// Least-utilized placement with identical containers lands the same
	// count everywhere (160 containers / 16 servers = 10 each).
	counts := make(map[int]int)
	for _, s := range res.Placement {
		counts[s]++
	}
	for s, c := range counts {
		if c != 10 {
			t.Fatalf("server %d hosts %d containers, want 10 (uniform spread)", s, c)
		}
	}
}

func TestPackingPoliciesUseFewerServersThanEPVM(t *testing.T) {
	req := testbedRequest(t, 176)
	numServers := req.Topo.NumServers()
	epvmRes, err := EPVM{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	epvmActive := epvmRes.NumActive(numServers)
	for _, p := range []Policy{MPP{}, Borg{}, RCInformed{}, Goldilocks{}} {
		res, err := p.Place(req)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if got := res.NumActive(numServers); got >= epvmActive {
			t.Errorf("%s active %d, want fewer than E-PVM's %d", p.Name(), got, epvmActive)
		}
	}
}

// checkUtilizationCaps asserts CPU stays below the policy's cap, network
// below the 90% headroom line, and memory below physical capacity on every
// server.
func checkUtilizationCaps(t *testing.T, req Request, res Result, cpuCap float64) {
	t.Helper()
	netCap := resources.UtilizationCaps(cpuCap)[resources.Network]
	for s, load := range serverLoads(req, res) {
		u := load.Utilization(req.Topo.Capacity[s])
		if u[resources.CPU] > cpuCap+1e-9 {
			t.Fatalf("server %d CPU utilization %v above cap %.2f", s, u, cpuCap)
		}
		if u[resources.Network] > netCap+1e-9 {
			t.Fatalf("server %d network utilization %v above cap %.2f", s, u, netCap)
		}
		if u[resources.Memory] > 1+1e-9 {
			t.Fatalf("server %d memory oversubscribed: %v", s, u)
		}
	}
}

func TestMPPRespects95PercentCap(t *testing.T) {
	req := testbedRequest(t, 176)
	res, err := MPP{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	checkUtilizationCaps(t, req, res, 0.95)
}

func TestBorgRespects95PercentCap(t *testing.T) {
	req := testbedRequest(t, 176)
	res, err := Borg{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	checkUtilizationCaps(t, req, res, 0.95)
}

func TestGoldilocksRespectsPEEKnee(t *testing.T) {
	req := testbedRequest(t, 176)
	res, err := Goldilocks{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	checkUtilizationCaps(t, req, res, 0.70)
}

func TestGoldilocksNeedsMoreServersThanBorgButBounded(t *testing.T) {
	// Fig. 9(a)/10(a): Goldilocks (70% cap) needs a couple more active
	// servers than Borg/mPP (95% cap), never fewer.
	req := testbedRequest(t, 176)
	borgRes, err := Borg{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	goldRes, err := Goldilocks{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	nb := borgRes.NumActive(16)
	ng := goldRes.NumActive(16)
	if ng < nb {
		t.Fatalf("Goldilocks active %d < Borg %d: 70%% cap cannot pack tighter than 95%%", ng, nb)
	}
	if ng > nb+4 {
		t.Fatalf("Goldilocks active %d far above Borg %d", ng, nb)
	}
}

func TestRCInformedIgnoresLiveLoad(t *testing.T) {
	// Fig. 13: RC-Informed's bucket count follows reservations, not live
	// demand — scaling demand down must not change the active count.
	topo := topology.NewTestbed()
	full := workload.TwitterWorkload(176, 1)
	light := full.Scaled(0.2)
	resFull, err := RCInformed{}.Place(Request{Spec: full, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	resLight, err := RCInformed{}.Place(Request{Spec: light, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	if resFull.NumActive(16) != resLight.NumActive(16) {
		t.Fatalf("active %d vs %d: reservations must not track live load",
			resFull.NumActive(16), resLight.NumActive(16))
	}
}

func TestRCInformedOversubscribesCPU(t *testing.T) {
	// A server: 100 CPU. Three containers reserving 40 CPU each exceed
	// 100 but fit 125 with oversubscription.
	topo := oneServerTopo(resources.New(100, 100000, 100000))
	app := workload.AppProfile{Name: "x", Demand: resources.New(40, 10, 1)}
	spec := &workload.Spec{}
	for i := 0; i < 3; i++ {
		spec.Containers = append(spec.Containers, workload.Container{ID: i, App: app, Demand: app.Demand})
	}
	res, err := RCInformed{}.Place(Request{Spec: spec, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Placement {
		if s != 0 {
			t.Fatal("all three must fit the single oversubscribed server")
		}
	}
	// A fourth pushes past 125%.
	spec.Containers = append(spec.Containers, workload.Container{ID: 3, App: app, Demand: app.Demand})
	if _, err := (RCInformed{}).Place(Request{Spec: spec, Topo: topo}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity beyond 125%%", err)
	}
}

// oneServerTopo builds a degenerate topology with a single server.
func oneServerTopo(cap resources.Vector) *topology.Topology {
	cfg := topology.Config{ServerCapacity: cap, ServerLinkMbps: 1000}
	tp, err := topology.NewLeafSpine(1, 1, 1, 1000,
		powerWedge(), powerWedge(), cfg)
	if err != nil {
		panic(err)
	}
	return tp
}

func TestGoldilocksLocalityBeatsBaselines(t *testing.T) {
	// The heaviest-communicating pairs must sit closer under Goldilocks
	// than under E-PVM — the Fig. 9(c) locality lever.
	req := testbedRequest(t, 64)
	g := req.Spec.Graph()

	weightedHops := func(res Result) float64 {
		var total, weight float64
		for _, f := range req.Spec.Flows {
			h := float64(req.Topo.HopDistance(res.Placement[f.A], res.Placement[f.B]))
			total += h * f.Count
			weight += f.Count
		}
		_ = g
		return total / weight
	}

	gold, err := Goldilocks{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	epvm, err := EPVM{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	hg, he := weightedHops(gold), weightedHops(epvm)
	if hg >= he {
		t.Fatalf("Goldilocks mean weighted hops %.2f not below E-PVM %.2f", hg, he)
	}
}

func TestGoldilocksSeparatesReplicas(t *testing.T) {
	spec := workload.MixtureWorkload(60, 4)
	req := Request{Spec: spec, Topo: topology.NewTestbed()}
	res, err := Goldilocks{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	groups := make(map[string][]int)
	for i, c := range spec.Containers {
		if c.ReplicaGroup != "" {
			groups[c.ReplicaGroup] = append(groups[c.ReplicaGroup], i)
		}
	}
	if len(groups) == 0 {
		t.Skip("no replica groups in this mixture size")
	}
	violations := 0
	pairs := 0
	for _, members := range groups {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				pairs++
				if res.Placement[members[i]] == res.Placement[members[j]] {
					violations++
				}
			}
		}
	}
	if violations > 0 {
		t.Fatalf("%d/%d replica pairs co-located despite anti-affinity", violations, pairs)
	}
}

func TestGoldilocksAsymmetricPath(t *testing.T) {
	topo := topology.NewTestbed()
	rack := topo.SubtreesAtLevel(topology.LevelRack)[0]
	if err := topo.FailUplinkFraction(rack, 0.5); err != nil {
		t.Fatal(err)
	}
	if topo.IsSymmetric() {
		t.Fatal("setup: topology should be asymmetric")
	}
	req := Request{Spec: workload.TwitterWorkload(120, 2), Topo: topo}
	res, err := Goldilocks{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	checkPlacementComplete(t, req, res)
	checkUtilizationCaps(t, req, res, 0.70)
}

func TestGoldilocksEmptySpec(t *testing.T) {
	req := Request{Spec: &workload.Spec{}, Topo: topology.NewTestbed()}
	res, err := Goldilocks{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placement) != 0 {
		t.Fatal("empty spec must give empty placement")
	}
}

// TestGoldilocksRejectsInvalidDemand: a NaN container demand must surface
// to the caller as partition.ErrInvalidDemand instead of being packed onto
// a server it overloads.
func TestGoldilocksRejectsInvalidDemand(t *testing.T) {
	req := testbedRequest(t, 40)
	req.Spec.Containers[3].Demand[resources.CPU] = math.NaN()
	_, err := Goldilocks{}.Place(req)
	if !errors.Is(err, partition.ErrInvalidDemand) {
		t.Fatalf("err = %v, want partition.ErrInvalidDemand", err)
	}
}

// TestGoldilocksRejectsInvalidWeight: a non-finite flow count must surface
// to the caller as partition.ErrInvalidWeight instead of a placement
// computed from a NaN or infinite cut.
func TestGoldilocksRejectsInvalidWeight(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := testbedRequest(t, 40)
		req.Spec.Flows[3].Count = w
		_, err := Goldilocks{}.Place(req)
		if !errors.Is(err, partition.ErrInvalidWeight) {
			t.Fatalf("flow count %v: err = %v, want partition.ErrInvalidWeight", w, err)
		}
	}
}

func TestPoliciesFailWhenOverloaded(t *testing.T) {
	// 16 servers × 3200 CPU × cap. 2000 Twitter containers at 33 CPU =
	// 66000 CPU > any cap × 51200.
	req := testbedRequest(t, 2000)
	for _, p := range allPolicies() {
		if _, err := p.Place(req); err == nil {
			t.Errorf("%s placed an infeasible workload", p.Name())
		}
	}
}

func TestActiveServersHelper(t *testing.T) {
	r := Result{Placement: []int{0, 0, 3}}
	active := r.ActiveServers(5)
	want := []bool{true, false, false, true, false}
	for i := range want {
		if active[i] != want[i] {
			t.Fatalf("active = %v", active)
		}
	}
	if r.NumActive(5) != 2 {
		t.Fatalf("NumActive = %d", r.NumActive(5))
	}
	r.AllServersOn = true
	if r.NumActive(5) != 5 {
		t.Fatal("AllServersOn must count every server")
	}
}

func TestNamesAreStable(t *testing.T) {
	want := map[string]bool{
		"E-PVM": true, "mPP": true, "Borg": true, "RC-Informed": true, "Goldilocks": true,
	}
	for _, p := range allPolicies() {
		if !want[p.Name()] {
			t.Errorf("unexpected policy name %q", p.Name())
		}
	}
}

func BenchmarkGoldilocksPlace176(b *testing.B) {
	req := Request{Spec: workload.TwitterWorkload(176, 1), Topo: topology.NewTestbed()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Goldilocks{}).Place(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBorgPlace176(b *testing.B) {
	req := Request{Spec: workload.TwitterWorkload(176, 1), Topo: topology.NewTestbed()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Borg{}).Place(req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGoldilocksReplicasInDistinctRacks(t *testing.T) {
	// §IV-C: fault domains are racks (ToR/power failure), not servers.
	spec := workload.MixtureWorkload(120, 6)
	topo := topology.NewTestbed()
	res, err := (Goldilocks{}).Place(Request{Spec: spec, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	rackOf := make([]int, topo.NumServers())
	for ri, rack := range topo.SubtreesAtLevel(topology.LevelRack) {
		for _, s := range rack.ServerIDs {
			rackOf[s] = ri
		}
	}
	groups := make(map[string][]int)
	for i, c := range spec.Containers {
		if c.ReplicaGroup != "" {
			groups[c.ReplicaGroup] = append(groups[c.ReplicaGroup], i)
		}
	}
	if len(groups) == 0 {
		t.Skip("no replica groups")
	}
	for name, members := range groups {
		if len(members) > 8 {
			continue // more replicas than racks: degradation allowed
		}
		seen := map[int]bool{}
		for _, m := range members {
			r := rackOf[res.Placement[m]]
			if seen[r] {
				t.Fatalf("group %s: two replicas share rack %d", name, r)
			}
			seen[r] = true
		}
	}
}

func TestGoldilocksFaultDomainPodLevel(t *testing.T) {
	// Pod-level fault domains on a fat-tree: trio replicas across pods.
	cfg := topology.Config{
		ServerCapacity: resources.New(3200, 64*1024, 1000),
		ServerModel:    power.Dell2018,
		ServerLinkMbps: 1000,
	}
	topo, err := topology.NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := &workload.Spec{}
	for i := 0; i < 12; i++ {
		group := ""
		if i < 3 {
			group = "db"
		}
		spec.Containers = append(spec.Containers, workload.Container{
			ID: i, App: workload.Cassandra, Demand: workload.Cassandra.Demand,
			ReplicaGroup: group,
		})
	}
	res, err := (Goldilocks{FaultDomain: topology.LevelPod}).Place(Request{Spec: spec, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	podOf := make([]int, topo.NumServers())
	for pi, pod := range topo.SubtreesAtLevel(topology.LevelPod) {
		for _, s := range pod.ServerIDs {
			podOf[s] = pi
		}
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		p := podOf[res.Placement[i]]
		if seen[p] {
			t.Fatalf("replicas share pod %d", p)
		}
		seen[p] = true
	}
}

func TestGoldilocksRelaxesTargetUnderExtremeLoad(t *testing.T) {
	// A workload that cannot pack at the 70% knee but fits at higher
	// targets: Goldilocks must degrade gracefully (§VI-A2's "savings
	// collapse toward baseline") instead of failing.
	topo := topology.NewTestbed() // 16 × 3200 CPU
	spec := &workload.Spec{}
	// 46 containers × 900 CPU = 41400 > 16×2240 (70%) but < 16×3040 (95%).
	for i := 0; i < 46; i++ {
		spec.Containers = append(spec.Containers, workload.Container{
			ID: i, App: workload.NaiveBayes, Demand: resources.New(900, 1024, 10),
		})
	}
	res, err := (Goldilocks{}).Place(Request{Spec: spec, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	checkPlacementComplete(t, Request{Spec: spec, Topo: topo}, res)
	checkUtilizationCaps(t, Request{Spec: spec, Topo: topo}, res, 0.95)
}

func TestAutoShardCount(t *testing.T) {
	gate := partition.ShardAutoMinN
	cases := []struct {
		name              string
		explicit, n, pods int
		want              int
	}{
		{"below-gate", 0, gate - 1, 8, 0},
		{"at-gate", 0, gate, 8, 8},
		{"above-gate", 0, 10 * gate, 4, 4},
		{"single-pod", 0, gate, 1, 0},
		{"no-pods", 0, gate, 0, 0},
		{"explicit-wins-below-gate", 6, 100, 8, 6},
		{"explicit-wins-above-gate", 2, gate, 8, 2},
		{"explicit-flat", -1, gate, 8, -1},
		{"explicit-one-stays-flat", 1, gate, 8, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := autoShardCount(c.explicit, c.n, c.pods); got != c.want {
				t.Errorf("autoShardCount(%d, %d, %d) = %d, want %d",
					c.explicit, c.n, c.pods, got, c.want)
			}
		})
	}
}

// TestGoldilocksShardedMatchesFlat pins the scheduler-level contract of the
// sharding knob: an explicitly sharded placement is a complete, valid
// placement, and forcing the flat pipeline (−1) reproduces the default
// below-gate placement exactly.
func TestGoldilocksShardedMatchesFlat(t *testing.T) {
	req := testbedRequest(t, 176)
	flat, err := Goldilocks{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	forced := Goldilocks{}
	forced.Partition = partition.DefaultOptions()
	forced.Partition.ShardCount = -1
	got, err := forced.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat.Placement {
		if flat.Placement[i] != got.Placement[i] {
			t.Fatalf("container %d: flat server %d, ShardCount=-1 server %d",
				i, flat.Placement[i], got.Placement[i])
		}
	}
	sharded := Goldilocks{}
	sharded.Partition = partition.DefaultOptions()
	sharded.Partition.ShardCount = 2
	res, err := sharded.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	checkPlacementComplete(t, req, res)
}

// TestNoPlacementOnFailedServer gives every policy a testbed whose server
// 0 is down and a container that demands and reserves nothing. The empty
// demand fits the failed server's zeroed capacity, so only the failure
// itself can keep the container off it. The incremental policy carries
// that container and one other on server 0. Evicting the
// other (its demand overloads the server) spends the whole migration
// budget, so consolidation cannot drain server 0 by accident: the repair
// loop itself must evict the empty container.
func TestNoPlacementOnFailedServer(t *testing.T) {
	topo := topology.NewTestbed()
	if err := topo.FailServer(0); err != nil {
		t.Fatal(err)
	}
	spec := workload.TwitterWorkload(8, 1)
	c := &spec.Containers[0]
	c.Demand, c.Reserved, c.App.Demand = resources.Vector{}, resources.Vector{}, resources.Vector{}
	req := Request{Spec: spec, Topo: topo}

	carried := make([]int, len(spec.Containers))
	for i := range carried {
		carried[i] = 2 + i%2
	}
	carried[0], carried[1] = 0, 0
	inc := carriedPolicy{&IncrementalGoldilocks{MigrationBudget: 0.10}, carried}

	for _, p := range append(allPolicies(), inc) {
		res, err := p.Place(req)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		for i, s := range res.Placement {
			if topo.ServerFailed(s) {
				t.Errorf("%s placed container %d on failed server %d", p.Name(), i, s)
			}
		}
	}
}

// TestConcurrentPlaceLeavesTopologyAlone pins that every policy reads the
// topology and never writes it, so concurrent placements on one shared
// topology neither race nor disturb each other. The fat tree has a failed
// server and a degraded rack uplink, which sends Goldilocks (and the
// incremental policy's fallback) down the Virtual Cluster path with its
// per-uplink bandwidth reservations.
func TestConcurrentPlaceLeavesTopologyAlone(t *testing.T) {
	topo, err := topology.NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, topology.Config{
		ServerCapacity: resources.New(7200, 6*1024*1024, 10000),
		ServerModel:    power.DellR940,
		ServerLinkMbps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.FailServer(3); err != nil {
		t.Fatal(err)
	}
	if err := topo.FailUplinkFraction(topo.SubtreesAtLevel(topology.LevelRack)[2], 0.5); err != nil {
		t.Fatal(err)
	}
	if topo.IsSymmetric() {
		t.Fatal("fault-injected fat tree must be asymmetric")
	}
	uplinks := func() []float64 {
		var caps []float64
		for _, n := range topo.Nodes() {
			if n.Uplink != nil {
				caps = append(caps, n.Uplink.CapacityMbps)
			}
		}
		return caps
	}
	wantUplinks := uplinks()
	wantCapacity := append([]resources.Vector(nil), topo.Capacity...)

	req := Request{Spec: workload.MixtureWorkload(120, 31), Topo: topo}
	policies := append(allPolicies(), primedIncremental(t, req))
	want := make([][]int, len(policies))
	for i, p := range policies {
		res, err := p.Place(req)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		want[i] = res.Placement
	}

	const workers, reps = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*reps*len(policies))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				for i, p := range policies {
					res, err := p.Place(req)
					if err != nil {
						errs <- fmt.Errorf("%s: %w", p.Name(), err)
						continue
					}
					if !reflect.DeepEqual(res.Placement, want[i]) {
						errs <- fmt.Errorf("%s: concurrent placement differs from the serial one", p.Name())
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := uplinks(); !reflect.DeepEqual(got, wantUplinks) {
		t.Errorf("uplink capacities changed by placement:\n got %v\nwant %v", got, wantUplinks)
	}
	if !reflect.DeepEqual(topo.Capacity, wantCapacity) {
		t.Errorf("server capacities changed by placement")
	}
}

// TestGoldilocksBalanceFixed pins that Goldilocks partitions at its own
// fixed balance whatever Partition.BalanceEps says: an explicit default
// (0.10) and an explicit 0.05 must place exactly like the zero value.
func TestGoldilocksBalanceFixed(t *testing.T) {
	req := Request{Spec: workload.MixtureWorkload(160, 3), Topo: topology.NewTestbed()}
	base, err := Goldilocks{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.05, 0.10} {
		p := Goldilocks{Partition: partition.DefaultOptions()}
		p.Partition.BalanceEps = eps
		res, err := p.Place(req)
		if err != nil {
			t.Fatalf("BalanceEps %.2f: %v", eps, err)
		}
		if !reflect.DeepEqual(res.Placement, base.Placement) {
			t.Errorf("BalanceEps %.2f placed differently from the zero value:\n got %v\nwant %v", eps, res.Placement, base.Placement)
		}
	}
}
