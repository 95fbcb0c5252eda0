package goldilocks

import (
	"testing"
	"time"

	"goldilocks/internal/resources"
)

// The root-package tests exercise the public facade the way a downstream
// user would: build a topology, build a workload, place it, run epochs.

func TestQuickstartFlow(t *testing.T) {
	topo := NewTestbed()
	spec := NewTwitterWorkload(80, 1)
	res, err := NewGoldilocks().Place(Request{Spec: spec, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placement) != 80 {
		t.Fatalf("placement = %d entries", len(res.Placement))
	}
	active := res.NumActive(topo.NumServers())
	if active <= 0 || active >= 16 {
		t.Fatalf("active = %d, want a packed subset of the 16 servers", active)
	}
}

func TestPoliciesCount(t *testing.T) {
	ps := Policies()
	if len(ps) != 5 {
		t.Fatalf("policies = %d, want 5", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name()] = true
	}
	for _, want := range []string{"E-PVM", "mPP", "Borg", "RC-Informed", "Goldilocks"} {
		if !names[want] {
			t.Fatalf("missing policy %s", want)
		}
	}
}

func TestRunnerFlow(t *testing.T) {
	runner := NewRunner(NewTestbed(), NewGoldilocks(), DefaultRunnerOptions())
	rep, err := runner.RunEpoch(EpochInput{Spec: NewTwitterWorkload(60, 2), RPS: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPowerW <= 0 || rep.MeanTCTMS <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestPartitionFacade(t *testing.T) {
	spec := NewTwitterWorkload(64, 3)
	g := spec.Graph()
	usable := resources.New(800, 64*1024, 1000)
	tree, err := PartitionToFit(g, usable, DefaultPartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves) < 2 {
		t.Fatalf("leaves = %d", len(tree.Leaves))
	}
	for _, leaf := range tree.Leaves {
		if !leaf.Demand.Fits(usable) {
			t.Fatal("leaf exceeds usable capacity")
		}
	}
}

func TestNetSimFacade(t *testing.T) {
	s := NewNetSimulator(NewTestbed())
	s.Inject(0, 0, 5, 1e6)
	s.Inject(10*time.Millisecond, 3, 9, 2e6)
	done, stuck := s.Run()
	if len(done) != 2 || len(stuck) != 0 {
		t.Fatalf("done=%d stuck=%d", len(done), len(stuck))
	}
}

func TestTableConstants(t *testing.T) {
	if len(TableI) != 5 {
		t.Fatalf("TableI rows = %d", len(TableI))
	}
	if len(TableII) != 4 {
		t.Fatalf("TableII rows = %d", len(TableII))
	}
	if Dell2018.Knee != 0.70 {
		t.Fatalf("Dell-2018 knee = %v", Dell2018.Knee)
	}
	if Legacy2010.Knee != 1.0 {
		t.Fatalf("legacy knee = %v", Legacy2010.Knee)
	}
}

func TestSearchTraceFacade(t *testing.T) {
	opts := DefaultSearchTrace()
	if opts.Vertices != 5488 || opts.Edges != 128538 {
		t.Fatalf("published trace dims wrong: %+v", opts)
	}
	small := SynthesizeSearchTrace(SearchTraceOptions{Vertices: 100, Edges: 600, Seed: 1})
	if small.NumContainers() != 100 {
		t.Fatalf("containers = %d", small.NumContainers())
	}
}

func TestVirtualClusterFacade(t *testing.T) {
	topo := NewTestbed()
	groups := []VirtualCluster{{
		ID:         0,
		Containers: []int{0, 1},
		Demands:    []Vector{resources.New(300, 1024, 50), resources.New(300, 1024, 50)},
		TotalMbps:  []float64{50, 50},
		InterMbps:  []float64{10, 10},
	}}
	pl, err := PlaceVirtualClusters(topo, 2, groups, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if pl.ServerOf[0] < 0 || pl.ServerOf[1] < 0 {
		t.Fatal("containers unplaced")
	}
}
