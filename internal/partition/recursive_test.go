package partition

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"goldilocks/internal/graph"
	"goldilocks/internal/resources"
)

func TestPartitionToFitSingleServer(t *testing.T) {
	g := unitGraph(4)
	cap := resources.New(100, 100, 100)
	tree, err := PartitionToFit(g, cap, 0.7, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves) != 1 {
		t.Fatalf("leaves = %d, want 1 (everything fits one server)", len(tree.Leaves))
	}
	if tree.Cut != 0 {
		t.Fatalf("cut = %v, want 0", tree.Cut)
	}
	if tree.Root.Size() != 4 {
		t.Fatalf("root size = %d", tree.Root.Size())
	}
}

func TestPartitionToFitSplitsUntilFit(t *testing.T) {
	// 16 containers of 10 CPU each; server usable capacity 35 CPU →
	// at least ceil(160/35) = 5 groups, each ≤ 3 containers.
	g := graph.New(16)
	for v := 0; v < 16; v++ {
		g.SetVertexWeight(v, resources.New(10, 1, 1))
	}
	for v := 0; v < 15; v++ {
		g.AddEdge(v, v+1, 1)
	}
	cap := resources.New(50, 1000, 1000)
	tree, err := PartitionToFit(g, cap, 0.7, DefaultOptions()) // usable = 35 CPU
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves) < 5 {
		t.Fatalf("leaves = %d, want ≥ 5", len(tree.Leaves))
	}
	usable := cap.Scale(0.7)
	for i, leaf := range tree.Leaves {
		if !leaf.Demand.Fits(usable) {
			t.Errorf("leaf %d demand %v exceeds usable %v", i, leaf.Demand, usable)
		}
	}
}

func TestPartitionToFitAssignmentCoversAll(t *testing.T) {
	g := unitGraph(40)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 80; i++ {
		g.AddEdge(rng.Intn(40), rng.Intn(40), float64(1+rng.Intn(5)))
	}
	cap := resources.New(10, 10, 10) // usable 7 → groups of ≤ 7
	tree, err := PartitionToFit(g, cap, 0.7, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	part := tree.Assignment(40)
	for v, p := range part {
		if p < 0 || p >= len(tree.Leaves) {
			t.Fatalf("vertex %d unassigned or out of range: %d", v, p)
		}
	}
}

func TestPartitionToFitVertexTooLarge(t *testing.T) {
	g := graph.New(2)
	g.SetVertexWeight(0, resources.New(100, 1, 1))
	g.SetVertexWeight(1, resources.New(1, 1, 1))
	cap := resources.New(100, 100, 100)
	_, err := PartitionToFit(g, cap, 0.7, DefaultOptions()) // usable CPU = 70 < 100
	if !errors.Is(err, ErrVertexTooLarge) {
		t.Fatalf("err = %v, want ErrVertexTooLarge", err)
	}
}

// TestPartitionToFitInvalidDemand: a NaN, infinite or negative component
// must be rejected up front. NaN compares false against capacity and a
// negative demand offsets its neighbors', so either would otherwise let an
// over-capacity group through as a single leaf.
func TestPartitionToFitInvalidDemand(t *testing.T) {
	for _, tc := range []struct {
		name string
		cpu  float64
	}{
		{"nan", math.NaN()},
		{"+inf", math.Inf(1)},
		{"-inf", math.Inf(-1)},
		{"negative", -500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New(40)
			for v := 0; v < 40; v++ {
				g.SetVertexWeight(v, resources.New(100, 1, 1))
			}
			for v := 1; v < 40; v++ {
				g.AddEdge(v-1, v, 1)
			}
			g.SetVertexWeight(17, resources.New(tc.cpu, 1, 1))
			cap := resources.New(1000, 1000, 1000) // usable CPU = 700
			_, err := PartitionToFit(g, cap, 0.7, DefaultOptions())
			if !errors.Is(err, ErrInvalidDemand) {
				t.Fatalf("err = %v, want ErrInvalidDemand", err)
			}
		})
	}
}

func TestPartitionToFitBadTarget(t *testing.T) {
	g := unitGraph(2)
	if _, err := PartitionToFit(g, resources.New(1, 1, 1), 0, DefaultOptions()); err == nil {
		t.Fatal("target utilization 0 must be rejected")
	}
}

func TestPartitionToFitLocality(t *testing.T) {
	// Two chatty clusters that each fit one server: partitioning must not
	// mix them (the cut would then include heavy internal edges).
	g := twoCliques(5, 10, 1) // 10 unit vertices
	cap := resources.New(8, 8, 8)
	tree, err := PartitionToFit(g, cap, 0.7, DefaultOptions()) // usable 5.6 → ≥ 2 groups
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves) != 2 {
		t.Fatalf("leaves = %d, want 2", len(tree.Leaves))
	}
	if tree.Cut != 1 {
		t.Fatalf("cut = %v, want 1 (only the bridge)", tree.Cut)
	}
}

func TestPartitionToFitAntiAffinityReplicas(t *testing.T) {
	// Primary (0) and replica (1) with a negative edge; both groups must
	// separate them even though everything would fit together in two
	// groups anyway.
	g := unitGraph(8)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 12; i++ {
		g.AddEdge(rng.Intn(8), rng.Intn(8), 1)
	}
	g.AddEdge(0, 1, -50)
	cap := resources.New(7, 7, 7)
	tree, err := PartitionToFit(g, cap, 0.7, DefaultOptions()) // usable 4.9 → ≥ 2 groups
	if err != nil {
		t.Fatal(err)
	}
	part := tree.Assignment(8)
	if part[0] == part[1] {
		t.Fatal("replica pair placed in the same group despite anti-affinity")
	}
}

func TestPropertyPartitionToFitInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		g := graph.New(n)
		for v := 0; v < n; v++ {
			g.SetVertexWeight(v, resources.New(float64(1+rng.Intn(5)), float64(1+rng.Intn(5)), 1))
		}
		for i := 0; i < n*2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
		}
		cap := resources.New(20, 20, 20)
		opts := DefaultOptions()
		opts.Seed = seed
		tree, err := PartitionToFit(g, cap, 0.7, opts)
		if err != nil {
			return true // demand/capacity combination infeasible is fine
		}
		usable := cap.Scale(0.7)
		seen := make([]bool, n)
		var total int
		for _, leaf := range tree.Leaves {
			if !leaf.Demand.Fits(usable) {
				return false // Eq. 2 violated
			}
			var demand resources.Vector
			for _, v := range leaf.Vertices {
				if seen[v] {
					return false // vertex in two groups
				}
				seen[v] = true
				total++
				demand = demand.Add(g.VertexWeight(v))
			}
			if demand != leaf.Demand {
				return false // cached demand out of sync
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKWayBasic(t *testing.T) {
	g := unitGraph(20)
	for v := 0; v < 19; v++ {
		g.AddEdge(v, v+1, 1)
	}
	part, cut := KWay(g, 5, DefaultOptions())
	ids := make(map[int]int)
	for _, p := range part {
		ids[p]++
	}
	if len(ids) != 5 {
		t.Fatalf("distinct parts = %d, want 5", len(ids))
	}
	for id, size := range ids {
		if size < 2 || size > 6 {
			t.Errorf("part %d size %d badly unbalanced", id, size)
		}
	}
	if cut < 4 {
		t.Errorf("chain into 5 parts needs ≥ 4 cut edges, got %v", cut)
	}
}

func TestKWayEdgeCases(t *testing.T) {
	g := unitGraph(3)
	g.AddEdge(0, 1, 1)

	part, cut := KWay(g, 1, DefaultOptions())
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must put everything in part 0")
		}
	}
	if cut != 0 {
		t.Fatalf("k=1 cut = %v", cut)
	}

	part, _ = KWay(g, 10, DefaultOptions()) // k ≥ n
	seen := make(map[int]bool)
	for _, p := range part {
		if seen[p] {
			t.Fatal("k ≥ n must isolate every vertex")
		}
		seen[p] = true
	}
}

func TestKWayPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KWay(g, 0) must panic")
		}
	}()
	KWay(unitGraph(2), 0, DefaultOptions())
}

func TestPropertyKWayPartitionComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		k := rng.Intn(8) + 1
		g := unitGraph(n)
		for i := 0; i < n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(3)))
		}
		opts := DefaultOptions()
		opts.Seed = seed
		part, cut := KWay(g, k, opts)
		if len(part) != n {
			return false
		}
		distinct := make(map[int]bool)
		for _, p := range part {
			if p < 0 {
				return false
			}
			distinct[p] = true
		}
		wantParts := k
		if k > n {
			wantParts = n
		}
		if len(distinct) != wantParts {
			return false
		}
		return cut <= g.TotalPositiveEdgeWeight()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPartitionToFit500(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := 500
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.SetVertexWeight(v, resources.New(float64(10+rng.Intn(40)), float64(1+rng.Intn(8)), float64(rng.Intn(30))))
	}
	for i := 0; i < 2000; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(50)))
	}
	cap := resources.New(3200, 65536, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionToFit(g, cap, 0.7, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
