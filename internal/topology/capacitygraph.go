package topology

import (
	"fmt"
	"runtime"

	"goldilocks/internal/graph"
	"goldilocks/internal/partition"
)

// CapacityGraph materializes the §III-A capacity graph (Fig. 4(b)): one
// vertex per server weighted by its resource capacity, and an edge between
// every server pair weighted by the hop distance between them. Recursively
// bipartitioning this graph with the *max-cut* objective peels the
// topology's substructures apart — the longest (inter-pod) edges are cut
// first, so pods, then racks, fall out automatically, exactly as the
// paper describes.
//
// The graph is complete (n·(n−1)/2 edges); building it for very large
// topologies is rejected to avoid accidental multi-gigabyte allocations —
// the tree hierarchy (SubtreesAtLevel) carries the same information and is
// what the production placement path uses.
func (t *Topology) CapacityGraph() (*graph.Graph, error) {
	n := t.NumServers()
	const maxServers = 4096
	if n > maxServers {
		return nil, fmt.Errorf("topology: capacity graph for %d servers exceeds the %d-server guard; use the subtree hierarchy instead", n, maxServers)
	}
	g := graph.New(n)
	for s := 0; s < n; s++ {
		g.SetVertexWeight(s, t.Capacity[s])
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			g.AddEdge(a, b, float64(t.HopDistance(a, b)))
		}
	}
	return g, nil
}

// DiscoverSubstructures recursively bipartitions the capacity graph with
// the max-cut objective (the longest edges — the inter-substructure ones —
// get cut first) until pieces reach targetSize servers or become
// internally uniform. It returns the server groups in left-most order.
// This is the §III-B automatic substructure discovery; it should recover
// the racks/pods the builders created.
//
// Sibling subproblems of the recursion run concurrently up to
// opts.Parallelism workers (≤ 0 means GOMAXPROCS); the group list is
// assembled left-child-first, so the output order and contents match the
// serial run exactly.
func DiscoverSubstructures(g *graph.Graph, targetSize int, opts partition.Options) [][]int {
	if targetSize < 1 {
		targetSize = 1
	}
	all := make([]int, g.NumVertices())
	for i := range all {
		all[i] = i
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return discover(g, all, targetSize, opts, partition.NewLimiter(par))
}

func discover(g *graph.Graph, vertices []int, targetSize int, opts partition.Options, lim partition.Limiter) [][]int {
	if len(vertices) <= targetSize || uniformDistances(g, vertices) {
		return [][]int{append([]int(nil), vertices...)}
	}
	sub, toOrig := g.Subgraph(vertices)
	// Max-cut = min-cut on the negated graph; the multilevel partitioner
	// handles negative edges natively (it never coarsens across them, so
	// it runs as a flat FM on these small complete graphs).
	neg := graph.New(sub.NumVertices())
	for v := 0; v < sub.NumVertices(); v++ {
		neg.SetVertexWeight(v, sub.VertexWeight(v))
		for _, e := range sub.Neighbors(v) {
			if v < e.To {
				neg.AddEdge(v, e.To, -e.Weight)
			}
		}
	}
	bis := partition.Bisect(neg, opts)
	var left, right []int
	for sv, side := range bis.Side {
		if side == 0 {
			left = append(left, toOrig[sv])
		} else {
			right = append(right, toOrig[sv])
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return [][]int{append([]int(nil), vertices...)}
	}
	var leftOut, rightOut [][]int
	// Neither branch can fail, so Join's error is always nil.
	_ = lim.Join(func() error {
		leftOut = discover(g, left, targetSize, opts, lim)
		return nil
	}, func() error {
		rightOut = discover(g, right, targetSize, opts, lim)
		return nil
	})
	return append(leftOut, rightOut...)
}

// uniformDistances reports whether all pairwise distances inside the
// vertex set are equal — no substructure left to split (e.g. servers of
// one rack).
func uniformDistances(g *graph.Graph, vertices []int) bool {
	if len(vertices) < 3 {
		return true
	}
	first := g.EdgeWeight(vertices[0], vertices[1])
	for i := 0; i < len(vertices); i++ {
		for j := i + 1; j < len(vertices); j++ {
			if g.EdgeWeight(vertices[i], vertices[j]) != first {
				return false
			}
		}
	}
	return true
}
