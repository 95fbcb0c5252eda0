package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"goldilocks/internal/graph"
	"goldilocks/internal/resources"
	"goldilocks/internal/workload"
)

// Determinism regression tests: the partition for a fixed Options.Seed must
// be bit-identical at every Options.Parallelism level. The experiment
// drivers reproduce the paper's figures on arbitrary hosts, so a result
// that depended on the core count would silently change every measured
// number. Each graph shape stresses a different code path: sparse random
// graphs exercise multi-level coarsening, clique pairs the ladder's
// early-exit, heavy-tailed weights the balance ladder's looser rungs, and
// anti-affinity edges the negative-weight handling.

// detShapes returns named graph generators spanning the partitioner's code
// paths.
func detShapes() map[string]func(seed int64) *graph.Graph {
	return map[string]func(seed int64) *graph.Graph{
		"sparse-random": func(seed int64) *graph.Graph {
			rng := rand.New(rand.NewSource(seed))
			n := 400
			g := unitGraph(n)
			for i := 0; i < 3*n; i++ {
				g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
			}
			return g
		},
		"clique-pair": func(seed int64) *graph.Graph {
			return twoCliques(40+int(seed%7), 5, 1)
		},
		"heavy-tailed": func(seed int64) *graph.Graph {
			rng := rand.New(rand.NewSource(seed))
			n := 300
			g := graph.New(n)
			for v := 0; v < n; v++ {
				cpu := float64(1 + rng.Intn(4))
				if rng.Intn(10) == 0 {
					cpu *= 4 // chunky vertices force the looser ladder rungs
				}
				g.SetVertexWeight(v, resources.New(cpu, float64(1+rng.Intn(6)), 1))
			}
			for i := 0; i < 2*n; i++ {
				g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(20)))
			}
			return g
		},
		"anti-affinity": func(seed int64) *graph.Graph {
			rng := rand.New(rand.NewSource(seed))
			n := 200
			g := unitGraph(n)
			for i := 0; i < 2*n; i++ {
				g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(5)))
			}
			for r := 0; r < 10; r++ {
				g.AddEdge(rng.Intn(n), rng.Intn(n), -40)
			}
			return g
		},
	}
}

// sameTree reports whether two group trees are structurally identical:
// same shape, same vertex sets, same cached demands, same depths.
func sameTree(a, b *Group) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("tree shapes diverge: one node is nil")
	}
	if a == nil {
		return nil
	}
	if a.Depth != b.Depth {
		return fmt.Errorf("depth %d vs %d", a.Depth, b.Depth)
	}
	if a.Demand != b.Demand {
		return fmt.Errorf("demand %v vs %v at depth %d", a.Demand, b.Demand, a.Depth)
	}
	if len(a.Vertices) != len(b.Vertices) {
		return fmt.Errorf("group sizes %d vs %d at depth %d", len(a.Vertices), len(b.Vertices), a.Depth)
	}
	for i := range a.Vertices {
		if a.Vertices[i] != b.Vertices[i] {
			return fmt.Errorf("vertex %d vs %d at position %d, depth %d",
				a.Vertices[i], b.Vertices[i], i, a.Depth)
		}
	}
	if err := sameTree(a.Left, b.Left); err != nil {
		return err
	}
	return sameTree(a.Right, b.Right)
}

func TestPartitionToFitParallelismInvariant(t *testing.T) {
	cap := resources.New(40, 60, 1000)
	for name, build := range detShapes() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				opts := DefaultOptions()
				opts.Seed = seed

				opts.Parallelism = 1
				serial, serr := PartitionToFit(build(seed), cap, 0.7, opts)

				opts.Parallelism = 8
				parallel, perr := PartitionToFit(build(seed), cap, 0.7, opts)

				if (serr == nil) != (perr == nil) {
					t.Fatalf("error divergence: serial=%v parallel=%v", serr, perr)
				}
				if serr != nil {
					return // both infeasible in the same way is fine
				}
				if serial.Cut != parallel.Cut {
					t.Fatalf("cut %v (serial) vs %v (parallel)", serial.Cut, parallel.Cut)
				}
				if len(serial.Leaves) != len(parallel.Leaves) {
					t.Fatalf("leaf count %d (serial) vs %d (parallel)",
						len(serial.Leaves), len(parallel.Leaves))
				}
				if err := sameTree(serial.Root, parallel.Root); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestBisectParallelismInvariant(t *testing.T) {
	for name, build := range detShapes() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				g := build(seed)
				opts := DefaultOptions()
				opts.Seed = seed

				opts.Parallelism = 1
				serial := Bisect(g, opts)
				opts.Parallelism = 8
				parallel := Bisect(g, opts)

				if serial.Cut != parallel.Cut {
					t.Fatalf("cut %v (serial) vs %v (parallel)", serial.Cut, parallel.Cut)
				}
				for v := range serial.Side {
					if serial.Side[v] != parallel.Side[v] {
						t.Fatalf("vertex %d on side %d (serial) vs %d (parallel)",
							v, serial.Side[v], parallel.Side[v])
					}
				}
			})
		}
	}
}

// TestPartitionToFitRepeatedParallelRuns guards against schedule-dependent
// nondeterminism that a single serial-vs-parallel comparison could miss:
// repeated parallel runs must agree with each other too.
func TestPartitionToFitRepeatedParallelRuns(t *testing.T) {
	build := detShapes()["sparse-random"]
	cap := resources.New(40, 60, 1000)
	opts := DefaultOptions()
	opts.Seed = 99
	opts.Parallelism = 8

	first, err := PartitionToFit(build(99), cap, 0.7, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, err := PartitionToFit(build(99), cap, 0.7, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTree(first.Root, again.Root); err != nil {
			t.Fatalf("run %d diverged: %v", run, err)
		}
	}
}

// TestPartitionToFitLargeGraphParallelismInvariant runs fit-driven
// recursion on a dedup-heavy 20k social graph under the scheduler's
// configuration (BalanceEps 0.03, PEE-scaled usable capacity): large enough
// that FM takes the lock-unmovable policy, with the recursive fan-out and
// the initial-bisection tries racing for p=8 worker slots. The assertion is
// p=8 output equal to serial across repeats; under -race the detector
// additionally checks the arena hand-offs between concurrent subproblems.
func TestPartitionToFitLargeGraphParallelismInvariant(t *testing.T) {
	g := workload.TwitterWorkload(20000, 7).Graph()
	usable := resources.New(3200, 64*1024, 10000).PerDimScale(resources.UtilizationCaps(0.70))
	opts := DefaultOptions()
	opts.Seed = 7
	opts.BalanceEps = 0.03
	opts.Parallelism = 1
	base, err := PartitionToFit(g, usable, 1.0, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Assignment(g.NumVertices())
	opts.Parallelism = 8
	for rep := 0; rep < 2; rep++ {
		tree, err := PartitionToFit(g, usable, 1.0, opts)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		got := tree.Assignment(g.NumVertices())
		diff := 0
		for v := range want {
			if got[v] != want[v] {
				diff++
			}
		}
		if diff != 0 {
			t.Fatalf("rep %d: %d/%d assignments differ from serial", rep, diff, len(want))
		}
	}
}
