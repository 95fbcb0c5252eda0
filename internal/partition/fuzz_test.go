package partition_test

// go test -fuzz targets for the PartitionToFit invariants. The fuzzer
// explores (seed, workload-bytes) space; every input that builds a
// feasible workload must yield a partition where
//
//  1. every container is assigned to exactly one leaf group,
//  2. no leaf group's demand exceeds the PEE-scaled server capacity, and
//  3. anti-affine replica pairs (negative edges, each pair too big to
//     co-reside) land in different groups,
//
// and the result is bit-identical between a serial and a parallel run —
// the PR 1 determinism contract, exercised here on adversarial inputs
// instead of the hand-built regression workloads. Seed corpora live in
// testdata/fuzz/<target>/ and run as ordinary test cases under plain
// `go test`; `make fuzz-smoke` gives each target a short budget of
// generated inputs.

import (
	"testing"

	"goldilocks/internal/graph"
	"goldilocks/internal/partition"
	"goldilocks/internal/resources"
)

const (
	fuzzTargetUtil = 0.9
	fuzzCapUnit    = 100.0
)

func fuzzCapacity() resources.Vector {
	return resources.New(fuzzCapUnit, fuzzCapUnit, fuzzCapUnit)
}

// byteAt reads raw cyclically, so short inputs still describe full
// workloads and every byte the fuzzer mutates stays meaningful.
func byteAt(raw []byte, i int) byte {
	if len(raw) == 0 {
		return 0
	}
	return raw[i%len(raw)]
}

// buildFuzzGraph decodes raw into a connected-ish weighted container
// graph of n vertices whose every vertex fits a PEE-scaled server.
func buildFuzzGraph(n int, raw []byte) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		// Per-dimension demand in [1, 80] ≤ the 90-unit usable capacity
		// (fuzzCapUnit·fuzzTargetUtil): every vertex is always feasible.
		d := func(i int) float64 { return 1 + float64(byteAt(raw, 3*v+i)%80) }
		g.SetVertexWeight(v, resources.New(d(0), d(1), d(2)))
	}
	edges := len(raw)
	for i := 0; i+2 < edges; i += 3 {
		u := int(byteAt(raw, i)) % n
		v := int(byteAt(raw, i+1)) % n
		w := 1 + float64(byteAt(raw, i+2)%9)
		g.AddEdge(u, v, w)
	}
	return g
}

// checkAssignedExactlyOnce verifies invariant 1 and returns the
// vertex→leaf assignment.
func checkAssignedExactlyOnce(t *testing.T, tree *partition.Tree, n int) []int {
	t.Helper()
	seen := make([]bool, n)
	total := 0
	for li, leaf := range tree.Leaves {
		for _, v := range leaf.Vertices {
			if v < 0 || v >= n {
				t.Fatalf("leaf %d contains out-of-range vertex %d", li, v)
			}
			if seen[v] {
				t.Fatalf("vertex %d assigned to more than one leaf", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("leaves cover %d of %d vertices", total, n)
	}
	return tree.Assignment(n)
}

// checkLeafCapacity verifies invariant 2 against demands recomputed from
// the graph (not the tree's own accumulated Demand field), with a 1e-9
// relative slack for float accumulation order.
func checkLeafCapacity(t *testing.T, tree *partition.Tree, g *graph.Graph) {
	t.Helper()
	usable := fuzzCapacity().Scale(fuzzTargetUtil * (1 + 1e-9))
	for li, leaf := range tree.Leaves {
		var demand resources.Vector
		for _, v := range leaf.Vertices {
			demand = demand.Add(g.VertexWeight(v))
		}
		if !demand.Fits(usable) {
			t.Fatalf("leaf %d demand %v exceeds PEE-scaled capacity %v", li, demand, usable)
		}
	}
}

func FuzzPartitionToFit(f *testing.F) {
	f.Add(int64(1), []byte("goldilocks"))
	f.Add(int64(42), []byte{0x10, 0x80, 0xff, 0x03, 0x3c, 0x77, 0x01, 0x02, 0x03, 0x04})
	f.Add(int64(-7), []byte{})
	// CSR-stress seed: a 40-vertex hub-and-spoke where every spoke pair is
	// added twice (once per direction), giving vertex 0 a maximally skewed
	// row with duplicate parallel edges — the worst case for the flat
	// adjacency layout's dedup-accumulate path.
	hub := []byte{38}
	for k := byte(1); k < 40; k++ {
		hub = append(hub, 0, k, k, k, 0, 3)
	}
	f.Add(int64(77), hub)
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		n := 2 + int(byteAt(raw, 0))%40
		g := buildFuzzGraph(n, raw)

		serial := partition.DefaultOptions()
		serial.Seed = seed
		serial.Parallelism = 1
		tree, err := partition.PartitionToFit(g, fuzzCapacity().Scale(fuzzTargetUtil), serial)
		if err != nil {
			// Every vertex fits a server by construction, so the split
			// driver has no legal reason to fail.
			t.Fatalf("PartitionToFit on a feasible workload: %v", err)
		}

		assign := checkAssignedExactlyOnce(t, tree, n)
		checkLeafCapacity(t, tree, g)

		parallel := serial
		parallel.Parallelism = 4
		ptree, err := partition.PartitionToFit(g, fuzzCapacity().Scale(fuzzTargetUtil), parallel)
		if err != nil {
			t.Fatalf("parallel PartitionToFit: %v", err)
		}
		passign := ptree.Assignment(n)
		for v := range assign {
			if assign[v] != passign[v] {
				t.Fatalf("parallelism changed the partition: vertex %d in leaf %d (serial) vs %d (parallel)",
					v, assign[v], passign[v])
			}
		}
	})
}

func FuzzPartitionAntiAffinity(f *testing.F) {
	f.Add(int64(1), []byte{2, 9, 9, 9})
	f.Add(int64(99), []byte("replica-spread"))
	f.Add(int64(-3), []byte{5, 0xaa, 0x55, 0x12, 0x34, 0x56})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		pairs := 1 + int(byteAt(raw, 0))%6
		fillers := int(byteAt(raw, 1)) % 16
		n := 2*pairs + fillers
		g := graph.New(n)

		// Replica pair members demand 50 per dimension: each fits the
		// 90-unit usable capacity alone, but a pair (100) never does, so
		// a correct partition MUST separate them. The negative edge
		// additionally steers the min-cut toward doing so early.
		for p := 0; p < pairs; p++ {
			a, b := 2*p, 2*p+1
			g.SetVertexWeight(a, resources.New(50, 50, 50))
			g.SetVertexWeight(b, resources.New(50, 50, 50))
			g.AddEdge(a, b, -(1 + float64(byteAt(raw, 2+p)%9)))
		}
		for v := 2 * pairs; v < n; v++ {
			d := func(i int) float64 { return 1 + float64(byteAt(raw, 3*v+i)%10) }
			g.SetVertexWeight(v, resources.New(d(0), d(1), d(2)))
		}
		// Positive chatter edges pull vertices together; they must never
		// win against the capacity constraint.
		for i := 0; i+2 < len(raw); i += 3 {
			u := int(byteAt(raw, i)) % n
			v := int(byteAt(raw, i+1)) % n
			if u/2 == v/2 && u < 2*pairs && v < 2*pairs {
				continue // keep pair edges purely negative
			}
			g.AddEdge(u, v, 1+float64(byteAt(raw, i+2)%9))
		}

		opts := partition.DefaultOptions()
		opts.Seed = seed
		tree, err := partition.PartitionToFit(g, fuzzCapacity().Scale(fuzzTargetUtil), opts)
		if err != nil {
			t.Fatalf("PartitionToFit on a feasible workload: %v", err)
		}
		assign := checkAssignedExactlyOnce(t, tree, n)
		checkLeafCapacity(t, tree, g)
		for p := 0; p < pairs; p++ {
			if assign[2*p] == assign[2*p+1] {
				t.Fatalf("replica pair %d co-located in leaf %d despite anti-affinity edge and capacity",
					p, assign[2*p])
			}
		}
	})
}

// FuzzShardStitch drives the sharded pipeline (pre-split → per-shard
// partitions → frontier stitch) on adversarial graphs and checks the
// boundary re-home invariants: no container lost or duplicated by the
// stitch, every leaf still within the PEE-scaled capacity, and the sharded
// result bit-identical between a serial and a parallel run.
func FuzzShardStitch(f *testing.F) {
	f.Add(int64(1), 4, []byte("goldilocks-sharded"))
	f.Add(int64(42), 2, []byte{0x10, 0x80, 0xff, 0x03, 0x3c, 0x77, 0x01, 0x02, 0x03, 0x04})
	f.Add(int64(-7), 7, []byte{9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8})
	// Dense frontier seed: a bipartite-ish band graph where most edges
	// cross the index midpoint, so the pre-split cut is wide and the
	// stitch worklist covers most of the graph.
	band := []byte{60}
	for k := byte(0); k < 60; k += 2 {
		band = append(band, k, 60-k, 5)
	}
	f.Add(int64(1234), 3, band)
	f.Fuzz(func(t *testing.T, seed int64, shards int, raw []byte) {
		n := 8 + int(byteAt(raw, 0))%56
		g := buildFuzzGraph(n, raw)
		if shards < 2 {
			shards = 2
		}
		if shards > 8 {
			shards = 2 + shards%7
		}

		opts := partition.DefaultOptions()
		opts.Seed = seed
		opts.Parallelism = 1
		opts.ShardCount = shards
		tree, err := partition.PartitionToFit(g, fuzzCapacity().Scale(fuzzTargetUtil), opts)
		if err != nil {
			t.Fatalf("sharded PartitionToFit on a feasible workload: %v", err)
		}
		assign := checkAssignedExactlyOnce(t, tree, n)
		checkLeafCapacity(t, tree, g)
		for li, leaf := range tree.Leaves {
			if len(leaf.Vertices) == 0 {
				t.Fatalf("stitch emptied leaf %d", li)
			}
		}

		parallel := opts
		parallel.Parallelism = 4
		ptree, err := partition.PartitionToFit(g, fuzzCapacity().Scale(fuzzTargetUtil), parallel)
		if err != nil {
			t.Fatalf("parallel sharded PartitionToFit: %v", err)
		}
		passign := ptree.Assignment(n)
		for v := range assign {
			if assign[v] != passign[v] {
				t.Fatalf("parallelism changed the sharded partition: vertex %d in leaf %d (serial) vs %d (parallel)",
					v, assign[v], passign[v])
			}
		}
	})
}
