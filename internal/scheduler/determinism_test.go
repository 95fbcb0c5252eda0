package scheduler

// Determinism regression tests for the fixes driven by goldilocks-lint
// (PR 2): placement must be a pure function of (workload, topology, seed),
// so every code path that used to consult Go's randomized map iteration
// order — anti-affinity repair order, consolidation tie-breaks, the
// packer's empty-class order — now has a test that replays it many times
// and demands bit-identical output. Before the fixes, these tests flaked
// within a handful of iterations.

import (
	"reflect"
	"testing"

	"goldilocks/internal/resources"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// TestPackerClassOrderCanonical pins the maporder fix in baselines.go: the
// packer iterates empty-server capacity classes in ascending lexicographic
// order, whatever order the topology listed its servers in.
func TestPackerClassOrderCanonical(t *testing.T) {
	big := resources.New(3200, 64*1024, 1000)
	small := resources.New(1600, 32*1024, 1000)
	// First-seen order is big, small; canonical order is small, big.
	caps := []resources.Vector{big, small, big, small}
	p := newPacker(caps)
	if len(p.classes) != 2 {
		t.Fatalf("got %d classes, want 2", len(p.classes))
	}
	if p.classes[0] != small || p.classes[1] != big {
		t.Fatalf("classes = %v, want ascending [%v %v]", p.classes, small, big)
	}
	// candidates() exposes one empty server per class, lowest id first
	// within the class: server 1 (small), then server 0 (big).
	if got, want := p.candidates(), []int{1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("candidates() = %v, want %v", got, want)
	}
}

// repairScenario builds a cluster where several replica groups start fully
// co-located and must compete for the same near-empty servers, so the
// *order* in which groups are repaired shows up in the final placement.
func repairScenario() (Request, []int) {
	cfg := topology.Config{
		ServerCapacity: resources.New(3200, 64*1024, 1000),
		ServerModel:    topology.NewTestbed().Server[0],
		ServerLinkMbps: 1000,
	}
	topo, err := topology.NewLeafSpine(2, 4, 1, 10000, powerWedge(), powerWedge(), cfg)
	if err != nil {
		panic(err)
	}
	spec := &workload.Spec{}
	demand := resources.New(400, 8*1024, 100)
	groups := []string{"db", "cache", "queue", "search"}
	for gi, name := range groups {
		for r := 0; r < 3; r++ {
			spec.Containers = append(spec.Containers, workload.Container{
				ID: gi*3 + r, App: workload.Cassandra, Demand: demand,
				ReplicaGroup: name,
			})
		}
	}
	// All replicas of group gi sit on server gi: two extras per group must
	// relocate, and every group wants the same least-loaded servers.
	placement := make([]int, spec.NumContainers())
	for gi := range groups {
		for r := 0; r < 3; r++ {
			placement[gi*3+r] = gi
		}
	}
	return Request{Spec: spec, Topo: topo}, placement
}

// TestRepairAntiAffinityDeterministic replays the same repair 25 times.
// Before the det.SortedKeys fix in repairAntiAffinity, the replica
// groups were visited in map order and the competing relocations diverged
// between runs within a few iterations.
func TestRepairAntiAffinityDeterministic(t *testing.T) {
	req, initial := repairScenario()
	var first []int
	for run := 0; run < 25; run++ {
		placement := append([]int(nil), initial...)
		repairAntiAffinity(req, placement, 0.9, topology.LevelServer, "Goldilocks")
		if first == nil {
			first = append([]int(nil), placement...)
			continue
		}
		if !reflect.DeepEqual(first, placement) {
			t.Fatalf("run %d produced a different repair:\nfirst: %v\n  now: %v", run, first, placement)
		}
	}
	// The scenario must actually exercise the repair path: some replicas
	// have to move off their shared server.
	if reflect.DeepEqual(first, initial) {
		t.Fatalf("repair scenario did not trigger any relocation")
	}
}

// TestIncrementalConsolidationDeterministic replays an epoch sequence that
// ends in consolidation (the workload shrinks, servers drain). The victim
// choice used to read a map in iteration order when servers tied on
// container count and utilization; det.SortedKeys makes the lowest server
// id win reproducibly.
func TestIncrementalConsolidationDeterministic(t *testing.T) {
	topo := topology.NewTestbed()
	full := workload.MixtureWorkload(160, 3)
	shrunk := &workload.Spec{Containers: append([]workload.Container(nil), full.Containers[:40]...)}

	var first []int
	for run := 0; run < 10; run++ {
		inc := &IncrementalGoldilocks{MigrationBudget: 64}
		prev, err := inc.Place(Request{Spec: full, Topo: topo})
		if err != nil {
			t.Fatal(err)
		}
		res, err := inc.Place(Request{Spec: shrunk, Topo: topo, Carried: prev.Placement[:40]})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = append([]int(nil), res.Placement...)
			continue
		}
		if !reflect.DeepEqual(first, res.Placement) {
			t.Fatalf("run %d produced a different consolidated placement", run)
		}
	}
}

// TestBaselinePoliciesDeterministic runs every baseline twice on a
// two-class (heterogeneous) topology — the configuration where the
// packer's class iteration order matters — and demands identical results.
func TestBaselinePoliciesDeterministic(t *testing.T) {
	topo := topology.NewTestbed()
	// Give odd servers double capacity so the packer tracks two classes
	// whose first-seen order interleaves.
	for s := range topo.Capacity {
		if s%2 == 1 {
			topo.Capacity[s] = topo.Capacity[s].Scale(2)
		}
	}
	req := Request{Spec: workload.TwitterWorkload(176, 1), Topo: topo}
	for _, p := range []Policy{EPVM{}, MPP{}, Borg{}, RCInformed{}} {
		t.Run(p.Name(), func(t *testing.T) {
			a, err := p.Place(req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := p.Place(req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Placement, b.Placement) {
				t.Fatalf("%s placement differs between identical runs", p.Name())
			}
		})
	}
}
