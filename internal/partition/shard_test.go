package partition

import (
	"fmt"
	"testing"

	"goldilocks/internal/graph"
	"goldilocks/internal/resources"
	"goldilocks/internal/workload"
)

// Sharded-mode regression tests (DESIGN.md §5.1.10). Three contracts:
//
//  1. bit-identity across Parallelism 1/4/8 for a fixed Seed, on each of
//     the large-workload shapes (power-law, microservice, hub-skew) — the
//     same invariance the flat pipeline guarantees;
//  2. sharded-off output exactly equal to the flat pipeline (ShardCount
//     0, 1 and −1 all take the unchanged code path);
//  3. the partition invariants hold after the stitch: every container in
//     exactly one leaf, ascending vertex order everywhere, leaf demand
//     within usable capacity, inner demand = sum of children.

// shardShapes returns the three large-workload generators at a size above
// lockUnmovableMinN, so the sharded pre-split, the large-graph FM policy
// and the per-shard pipelines all engage.
func shardShapes(n int) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"powerlaw":     workload.PowerLawWorkload(n, 7).Graph(),
		"microservice": workload.MicroserviceWorkload(n, 7).Graph(),
		"hub-skew":     workload.HubWorkload(n, 8, 7).Graph(),
	}
}

// shardCapacityFor mirrors the bench helper: capacity sized so the graph
// splits into ~groups leaf groups, floored at twice the largest vertex.
func shardCapacityFor(g *graph.Graph, groups int) resources.Vector {
	total := g.TotalVertexWeight()
	var maxV resources.Vector
	for v := 0; v < g.NumVertices(); v++ {
		w := g.VertexWeight(v)
		for d := range w {
			if w[d] > maxV[d] {
				maxV[d] = w[d]
			}
		}
	}
	cap := total.Scale(1 / float64(groups))
	for d := range cap {
		if cap[d] < 2*maxV[d] {
			cap[d] = 2 * maxV[d]
		}
	}
	return cap
}

func shardOpts(p int) Options {
	opts := DefaultOptions()
	opts.Seed = 1
	opts.Parallelism = p
	opts.ShardCount = 4
	return opts
}

func TestShardedParallelismInvariant(t *testing.T) {
	const n = 9000
	for name, g := range shardShapes(n) {
		t.Run(name, func(t *testing.T) {
			cap := shardCapacityFor(g, n/80)
			ref, err := PartitionToFit(g, cap, 1.0, shardOpts(1))
			if err != nil {
				t.Fatalf("serial sharded run failed: %v", err)
			}
			if len(ref.Leaves) < 4 {
				t.Fatalf("degenerate partition: %d leaves", len(ref.Leaves))
			}
			for _, p := range []int{4, 8} {
				got, err := PartitionToFit(g, cap, 1.0, shardOpts(p))
				if err != nil {
					t.Fatalf("p=%d sharded run failed: %v", p, err)
				}
				if got.Cut != ref.Cut {
					t.Errorf("p=%d cut %v differs from serial %v", p, got.Cut, ref.Cut)
				}
				if err := sameTree(ref.Root, got.Root); err != nil {
					t.Errorf("p=%d tree differs from serial: %v", p, err)
				}
			}
		})
	}
}

func TestShardedOffMatchesFlat(t *testing.T) {
	g := workload.MixtureWorkload(2000, 7).Graph()
	cap := shardCapacityFor(g, 25)
	base := DefaultOptions()
	base.Seed = 1
	base.Parallelism = 2
	ref, err := PartitionToFit(g, cap, 1.0, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []int{0, 1, -1} {
		opts := base
		opts.ShardCount = sc
		got, err := PartitionToFit(g, cap, 1.0, opts)
		if err != nil {
			t.Fatalf("ShardCount=%d: %v", sc, err)
		}
		if got.Cut != ref.Cut {
			t.Errorf("ShardCount=%d cut %v differs from flat %v", sc, got.Cut, ref.Cut)
		}
		if err := sameTree(ref.Root, got.Root); err != nil {
			t.Errorf("ShardCount=%d tree differs from flat: %v", sc, err)
		}
	}
	// Below the 2·ShardCount floor the sharded dispatch must also fall
	// back to the flat path bit-for-bit.
	small := graph.New(5)
	for v := 0; v < 5; v++ {
		small.SetVertexWeight(v, resources.New(3, 3, 3))
	}
	small.AddEdge(0, 1, 4)
	small.AddEdge(2, 3, 4)
	small.AddEdge(1, 4, 1)
	tiny := shardCapacityFor(small, 2)
	flatOpts := DefaultOptions()
	flatOpts.Seed = 1
	refS, err := PartitionToFit(small, tiny, 1.0, flatOpts)
	if err != nil {
		t.Fatal(err)
	}
	flatOpts.ShardCount = 3 // n=5 < 2·3
	gotS, err := PartitionToFit(small, tiny, 1.0, flatOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTree(refS.Root, gotS.Root); err != nil {
		t.Errorf("small-graph sharded fallback differs from flat: %v", err)
	}
}

// checkShardTreeInvariants asserts the partition invariants the stitch
// must preserve: exact vertex coverage, ascending order, inner-node
// consistency, and leaf demand within usable capacity (with the float
// accumulation-order slack the fuzz targets also use).
func checkShardTreeInvariants(t *testing.T, tree *Tree, g *graph.Graph, usable resources.Vector) {
	t.Helper()
	n := g.NumVertices()
	seen := make([]bool, n)
	total := 0
	for li, leaf := range tree.Leaves {
		if len(leaf.Vertices) == 0 {
			t.Fatalf("leaf %d is empty", li)
		}
		var demand resources.Vector
		for i, v := range leaf.Vertices {
			if v < 0 || v >= n {
				t.Fatalf("leaf %d holds out-of-range vertex %d", li, v)
			}
			if i > 0 && leaf.Vertices[i-1] >= v {
				t.Fatalf("leaf %d vertices not ascending at %d", li, i)
			}
			if seen[v] {
				t.Fatalf("vertex %d in more than one leaf", v)
			}
			seen[v] = true
			total++
			demand = demand.Add(g.VertexWeight(v))
		}
		if !demand.Fits(usable.Scale(1 + 1e-9)) {
			t.Fatalf("leaf %d demand %v exceeds usable %v", li, demand, usable)
		}
	}
	if total != n {
		t.Fatalf("leaves cover %d of %d vertices", total, n)
	}
	var walk func(grp *Group)
	walk = func(grp *Group) {
		if grp == nil || grp.IsLeaf() {
			return
		}
		if len(grp.Vertices) != len(grp.Left.Vertices)+len(grp.Right.Vertices) {
			t.Fatalf("inner node at depth %d has %d vertices, children hold %d+%d",
				grp.Depth, len(grp.Vertices), len(grp.Left.Vertices), len(grp.Right.Vertices))
		}
		walk(grp.Left)
		walk(grp.Right)
	}
	walk(tree.Root)
}

func TestShardedInvariants(t *testing.T) {
	const n = 9000
	for name, g := range shardShapes(n) {
		t.Run(name, func(t *testing.T) {
			cap := shardCapacityFor(g, n/80)
			tree, err := PartitionToFit(g, cap, 1.0, shardOpts(4))
			if err != nil {
				t.Fatal(err)
			}
			checkShardTreeInvariants(t, tree, g, cap)
			if got := g.CutWeightK(tree.Assignment(n)); got != tree.Cut {
				t.Errorf("Tree.Cut %v != recomputed cut %v", tree.Cut, got)
			}
		})
	}
}

// TestShardedRepeatedRuns pins run-to-run determinism of the sharded mode
// (pool and GC state must never leak into values).
func TestShardedRepeatedRuns(t *testing.T) {
	g := workload.PowerLawWorkload(9000, 3).Graph()
	cap := shardCapacityFor(g, 100)
	opts := shardOpts(4)
	opts.Seed = 11
	ref, err := PartitionToFit(g, cap, 1.0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := PartitionToFit(g, cap, 1.0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTree(ref.Root, got.Root); err != nil {
			t.Fatalf("run %d differs: %v", i+2, err)
		}
	}
}

// TestShardedVariousShardCounts exercises uneven and large shard counts,
// including counts that do not divide the leaf count and a count high
// enough to force the lopsided-branch fallback.
func TestShardedVariousShardCounts(t *testing.T) {
	g := workload.MicroserviceWorkload(9000, 5).Graph()
	cap := shardCapacityFor(g, 110)
	for _, k := range []int{2, 3, 5, 7, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			opts := shardOpts(4)
			opts.ShardCount = k
			tree, err := PartitionToFit(g, cap, 1.0, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkShardTreeInvariants(t, tree, g, cap)
		})
	}
}
