package topology

import (
	"reflect"
	"sort"
	"testing"

	"goldilocks/internal/partition"
	"goldilocks/internal/power"
	"goldilocks/internal/resources"
)

func TestCapacityGraphShape(t *testing.T) {
	tp, err := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, Config{
		ServerCapacity: resources.New(2400, 65536, 1000),
		ServerModel:    power.Dell2018,
		ServerLinkMbps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := tp.CapacityGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 16 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 16*15/2 {
		t.Fatalf("edges = %d, want complete graph", g.NumEdges())
	}
	// Vertex weight = server capacity (Fig. 4(b)).
	if g.VertexWeight(0) != resources.New(2400, 65536, 1000) {
		t.Fatalf("vertex weight = %v", g.VertexWeight(0))
	}
	// Edge weight = hop distance: same rack 2, same pod 4, cross pod 6.
	if g.EdgeWeight(0, 1) != 2 || g.EdgeWeight(0, 2) != 4 || g.EdgeWeight(0, 4) != 6 {
		t.Fatalf("edge weights = %v/%v/%v", g.EdgeWeight(0, 1), g.EdgeWeight(0, 2), g.EdgeWeight(0, 4))
	}
}

func TestCapacityGraphGuard(t *testing.T) {
	tp := NewSimulationFatTree() // 5488 servers
	if _, err := tp.CapacityGraph(); err == nil {
		t.Fatal("5488-server complete graph must be rejected")
	}
}

func TestDiscoverSubstructuresRecoversRacks(t *testing.T) {
	tp, err := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, Config{
		ServerCapacity: resources.New(2400, 65536, 1000),
		ServerModel:    power.Dell2018,
		ServerLinkMbps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := tp.CapacityGraph()
	if err != nil {
		t.Fatal(err)
	}
	groups := DiscoverSubstructures(g, 2, partition.DefaultOptions())
	if len(groups) != 8 {
		t.Fatalf("discovered %d substructures, want the 8 racks", len(groups))
	}
	// Each discovered group must be exactly one rack: servers {2k, 2k+1}.
	for _, grp := range groups {
		sorted := append([]int(nil), grp...)
		sort.Ints(sorted)
		if len(sorted) != 2 || sorted[1] != sorted[0]+1 || sorted[0]%2 != 0 {
			t.Fatalf("group %v is not a rack", grp)
		}
	}
}

func TestDiscoverSubstructuresPodLevel(t *testing.T) {
	tp, err := NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, Config{
		ServerCapacity: resources.New(2400, 65536, 1000),
		ServerModel:    power.Dell2018,
		ServerLinkMbps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := tp.CapacityGraph()
	if err != nil {
		t.Fatal(err)
	}
	groups := DiscoverSubstructures(g, 4, partition.DefaultOptions())
	if len(groups) != 4 {
		t.Fatalf("discovered %d substructures, want the 4 pods", len(groups))
	}
	for _, grp := range groups {
		sorted := append([]int(nil), grp...)
		sort.Ints(sorted)
		if len(sorted) != 4 || sorted[0]%4 != 0 || sorted[3] != sorted[0]+3 {
			t.Fatalf("group %v is not a pod", grp)
		}
	}
}

func TestDiscoverSubstructuresUniform(t *testing.T) {
	// A single rack (uniform pairwise distance) must not split below its
	// natural boundary even with targetSize 1... it stops at uniformity.
	tp, err := NewLeafSpine(1, 4, 1, 1000, power.Wedge, power.Wedge, Config{
		ServerCapacity: resources.New(100, 100, 100),
		ServerModel:    power.Dell2018,
		ServerLinkMbps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := tp.CapacityGraph()
	if err != nil {
		t.Fatal(err)
	}
	groups := DiscoverSubstructures(g, 1, partition.DefaultOptions())
	if len(groups) != 1 || len(groups[0]) != 4 {
		t.Fatalf("uniform rack split into %v", groups)
	}
}

// TestDiscoverSubstructuresParallelismInvariant: the discovery recursion
// forks sibling subproblems through partition.Limiter.Join, so the groups
// — contents and left-most order — must not depend on Parallelism.
func TestDiscoverSubstructuresParallelismInvariant(t *testing.T) {
	tp, err := NewFatTree(8, power.Wedge, power.Wedge, power.Wedge, Config{
		ServerCapacity: resources.New(2400, 65536, 1000),
		ServerModel:    power.Dell2018,
		ServerLinkMbps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := tp.CapacityGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{1, 4, 16} {
		opts := partition.DefaultOptions()
		opts.Parallelism = 1
		serial := DiscoverSubstructures(g, target, opts)
		opts.Parallelism = 8
		for rep := 0; rep < 3; rep++ {
			if got := DiscoverSubstructures(g, target, opts); !reflect.DeepEqual(got, serial) {
				t.Fatalf("target %d, rep %d: p8 groups %v differ from serial %v", target, rep, got, serial)
			}
		}
		if len(serial) < 2 {
			t.Fatalf("target %d: discovery did not split the %d-server fat tree: %v", target, g.NumVertices(), serial)
		}
	}
}
