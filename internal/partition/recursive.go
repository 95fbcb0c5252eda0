package partition

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"goldilocks/internal/graph"
	"goldilocks/internal/resources"
)

// ErrVertexTooLarge is returned when a single container's demand exceeds a
// server's usable capacity: no amount of partitioning can make it fit.
var ErrVertexTooLarge = errors.New("partition: single vertex exceeds server capacity")

// ErrInvalidDemand is returned when a container's demand has a NaN,
// infinite or negative component. Such a demand cannot be checked against
// capacity (NaN compares false with everything, a negative one offsets its
// neighbors' demand), so it would otherwise slip through the fit test and
// overload a server.
var ErrInvalidDemand = errors.New("partition: vertex demand is not a finite non-negative vector")

// validDemand reports whether every component of w is finite and ≥ 0.
func validDemand(w resources.Vector) bool {
	for _, x := range w {
		if !(x >= 0) || math.IsInf(x, 1) { // !(x >= 0) also catches NaN
			return false
		}
	}
	return true
}

// Group is a node of the group tree produced by the recursive fit-driven
// partitioning of §III-B. Leaves are the container groups that will be
// assigned to servers; inner nodes record the recursion structure, which
// the assignment step exploits for locality (sibling leaves land in the
// same rack/pod).
type Group struct {
	// Vertices holds original container-graph vertex ids, ascending.
	Vertices []int
	// Demand is the aggregate resource demand of the group.
	Demand resources.Vector
	// Depth is the recursion depth (root = 0).
	Depth int

	Left, Right *Group
}

// IsLeaf reports whether the group was small enough to fit a server.
func (g *Group) IsLeaf() bool { return g.Left == nil && g.Right == nil }

// Size returns the number of containers in the group.
func (g *Group) Size() int { return len(g.Vertices) }

// Tree is the full result of PartitionToFit.
type Tree struct {
	Root *Group
	// Leaves lists leaf groups in left-to-right order; this is the order
	// in which groups are assigned to the topology's left-most subtrees.
	Leaves []*Group
	// Cut is the total container-graph edge weight crossing group
	// boundaries (the Eq. 1 objective over the final partition).
	Cut float64
}

// Assignment returns part[v] = leaf index for every vertex.
func (t *Tree) Assignment(numVertices int) []int {
	part := make([]int, numVertices)
	for i := range part {
		part[i] = -1
	}
	for li, leaf := range t.Leaves {
		for _, v := range leaf.Vertices {
			part[v] = li
		}
	}
	return part
}

// PartitionToFit recursively bipartitions the container graph g until every
// leaf group's aggregate demand fits within capacity scaled by targetUtil
// (Eq. 2 with the Peak Energy Efficiency packing limit). This is the
// Goldilocks placement core: min-cut keeps chatty containers together,
// recursion depth induces the locality hierarchy.
//
// The container graph is flattened once into a pooled CSR arena at the top;
// the recursion then extracts child subgraphs CSR→CSR into child arenas
// (never materializing intermediate graph.Graph copies), so the whole run
// allocates little beyond the result tree itself.
func PartitionToFit(g *graph.Graph, capacity resources.Vector, targetUtil float64, opts Options) (*Tree, error) {
	opts = opts.withDefaults()
	if targetUtil <= 0 {
		return nil, fmt.Errorf("partition: non-positive target utilization %v", targetUtil)
	}
	usable := capacity.Scale(targetUtil)

	n := g.NumVertices()
	all := make([]int, n)
	demand := resources.Vector{}
	for v := 0; v < n; v++ {
		all[v] = v
		w := g.VertexWeight(v)
		demand = demand.Add(w)
		if !validDemand(w) {
			return nil, fmt.Errorf("%w: vertex %d demands %v", ErrInvalidDemand, v, w)
		}
		if !w.Fits(usable) {
			return nil, fmt.Errorf("%w: vertex %d demands %v but usable capacity is %v",
				ErrVertexTooLarge, v, w, usable)
		}
	}

	// ShardCount ≥ 2 takes the topology-sharded path (shard.go): pre-split,
	// concurrent per-shard pipelines, deterministic stitch. Everything below
	// is the flat pipeline, byte-for-byte unchanged, so sharded-off output
	// is pinned by the legacy differential suite.
	if opts.ShardCount >= 2 && n >= 2*opts.ShardCount {
		return partitionSharded(g, all, demand, usable, opts)
	}

	span := opts.Trace.Child("partition")
	span.SetInt("vertices", n)
	// splitToFit's contract: opts.Trace is the span for *this* subproblem,
	// pre-created by the caller (so forked children never append to a
	// shared parent concurrently).
	opts.Trace = span.Child("split")
	a := getArena(n)
	sub := a.buildRootCSRNormalized(g)
	root, err := splitToFit(sub, all, demand, usable, 0, opts, NewLimiter(opts.Parallelism), a)
	if err != nil {
		span.SetStr("error", err.Error())
		span.End()
		return nil, err
	}
	t := &Tree{Root: root}
	collectLeaves(root, &t.Leaves)
	t.Cut = g.CutWeightK(t.Assignment(n))
	span.SetInt("leaves", len(t.Leaves))
	span.SetFloat("cut", t.Cut)
	span.End()
	return t, nil
}

// maxDepth bounds the recursion; 2^64 groups is unreachable, so hitting it
// means the bisection failed to make progress.
const maxDepth = 64

// splitToFit recursively splits one subproblem. sub is the subproblem's
// CSR, owned by arena a; vertices is the matching original-id list (same
// order as sub's local ids, ascending). The callee owns a: leaves return it
// to the pool, inner nodes hand it to the left child (compacted in place),
// so the number of live arenas tracks the recursion frontier, not the tree
// size, and buffer capacity stays with the largest open subproblem.
func splitToFit(sub *csrGraph, vertices []int, demand, usable resources.Vector, depth int, opts Options, lim Limiter, a *levelArena) (*Group, error) {
	// opts.Trace is this subproblem's own span, pre-created by the caller
	// before any fork so sibling order is structural (telemetry contract).
	span := opts.Trace
	span.SetInt("depth", depth)
	span.SetInt("vertices", len(vertices))
	defer span.End()
	grp := &Group{Vertices: vertices, Demand: demand, Depth: depth}
	if demand.Fits(usable) {
		span.SetInt("leaf", 1)
		putArena(a)
		return grp, nil
	}
	if depth >= maxDepth || len(vertices) < 2 {
		putArena(a)
		return nil, fmt.Errorf("partition: cannot split group of %d vertices at depth %d to fit %v",
			len(vertices), depth, usable)
	}

	// Split in server-count proportions rather than naive halves: a group
	// needing ceil(r) servers splits ceil(k/2):floor(k/2), so leaf groups
	// fill servers close to the packing target instead of stranding
	// capacity at ~50% (the paper's G23/G24 imbalance tolerance, Fig. 6).
	k := serversNeeded(demand, usable)
	frac := 0.5
	if k >= 2 {
		kLeft := (k + 1) / 2
		frac = float64(k-kLeft) / float64(k)
	}

	// A split whose children together need more servers than the parent's
	// budget cascades into stranded half-full leaves; retry across seeds
	// and progressively looser balance tolerances (chunky vertices can
	// make tight fractions infeasible), keeping the split with the
	// smallest combined child budget (cut weight breaks ties). Each try's
	// seed derives from the subproblem's structural coordinates (depth,
	// first vertex, size, try), which both decorrelates sibling splits
	// and keeps every random generator private to one goroutine — the
	// ladder itself stays sequential because its early exit usually stops
	// after one try, and speculating the later tries inflates total work,
	// starving the recursion fan-out of worker slots.
	n := sub.n
	bestSide := growI8(&a.bestSide, n)
	bestBudget, bestCut := int(^uint(0)>>1), 0.0
	epsLadder := [3]float64{opts.BalanceEps, opts.BalanceEps * 2, opts.BalanceEps * 4}
	for try := 0; try < len(epsLadder); try++ {
		subOpts := opts
		subOpts.BalanceEps = epsLadder[try]
		subOpts.Seed = deriveSeed(opts.Seed, saltSplit,
			uint64(depth), uint64(vertices[0]), uint64(len(vertices)), uint64(try))
		trySpan := span.Child("bisect")
		trySpan.SetInt("try", try)
		trySpan.SetFloat("eps", subOpts.BalanceEps)
		subOpts.Trace = trySpan
		cut := bisectCSR(sub, subOpts, frac, lim, a)
		var ld, rd resources.Vector
		for sv := 0; sv < n; sv++ {
			if a.side[sv] == 0 {
				ld = ld.Add(sub.vw[sv])
			} else {
				rd = rd.Add(sub.vw[sv])
			}
		}
		budget := serversNeeded(ld, usable) + serversNeeded(rd, usable)
		trySpan.SetFloat("cut", cut)
		trySpan.SetInt("budget", budget)
		trySpan.End()
		if budget < bestBudget || (budget == bestBudget && cut < bestCut) {
			bestBudget, bestCut = budget, cut
			copy(bestSide, a.side)
		}
		if budget <= k {
			break // within the parent's budget: good enough
		}
	}

	nLeft := 0
	for sv := 0; sv < n; sv++ {
		if bestSide[sv] == 0 {
			nLeft++
		}
	}
	var leftV, rightV []int
	var leftD, rightD resources.Vector
	if nLeft == 0 || nLeft == n {
		// Defensive: bisection should never empty a side for n >= 2,
		// but a hard index split always makes progress. Local ids are
		// ascending in original ids, so the index split agrees between
		// vertices and bestSide.
		mid := len(vertices) / 2
		leftV, rightV = vertices[:mid], vertices[mid:]
		for sv := 0; sv < mid; sv++ {
			bestSide[sv] = 0
			leftD = leftD.Add(sub.vw[sv])
		}
		for sv := mid; sv < n; sv++ {
			bestSide[sv] = 1
			rightD = rightD.Add(sub.vw[sv])
		}
	} else {
		leftV = make([]int, 0, nLeft)
		rightV = make([]int, 0, n-nLeft)
		for sv := 0; sv < n; sv++ {
			ov := int(sub.toOrig[sv])
			if bestSide[sv] == 0 {
				leftV = append(leftV, ov)
				leftD = leftD.Add(sub.vw[sv])
			} else {
				rightV = append(rightV, ov)
				rightD = rightD.Add(sub.vw[sv])
			}
		}
	}

	// Extract the right child into a fresh arena first (the parent CSR must
	// survive both extractions), then compact the left child *in place* into
	// this subproblem's own arena: extractChild supports pa == ca because a
	// child is never larger than its parent (forward compaction) and edges
	// are staged through pa.halves before the CSR rows are overwritten.
	// Reusing a for the left child keeps high-water buffer capacity flowing
	// down the heavy recursion spine instead of round-tripping through the
	// pool, where a large subproblem would draw a small-capacity arena and
	// regrow every buffer — the dominant steady-state allocation source at
	// Parallelism > 1 before this reuse.
	ra := getArena(len(rightV))
	rightSub := extractChild(sub, bestSide, 1, a, ra)
	la := a
	leftSub := extractChild(sub, bestSide, 0, a, a)

	// The two child subproblems are fully independent (disjoint vertex
	// sets, each owning its CSR arena), so the right child runs on a spare
	// worker slot when one is free. Child seeds depend only on structure,
	// so the tree is identical however the recursion is scheduled. Child
	// spans are created here, sequentially, before any fork: the right
	// goroutine only ever touches its own span.
	leftOpts, rightOpts := opts, opts
	leftOpts.Trace = span.Child("split")
	rightOpts.Trace = span.Child("split")
	var err error
	if lim.TryAcquire() {
		var (
			rightGrp *Group
			rightErr error
			wg       sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer lim.Release()
			rightGrp, rightErr = splitToFit(rightSub, rightV, rightD, usable, depth+1, rightOpts, lim, ra)
		}()
		grp.Left, err = splitToFit(leftSub, leftV, leftD, usable, depth+1, leftOpts, lim, la)
		wg.Wait()
		if err != nil {
			return nil, err
		}
		if rightErr != nil {
			return nil, rightErr
		}
		grp.Right = rightGrp
		return grp, nil
	}
	grp.Left, err = splitToFit(leftSub, leftV, leftD, usable, depth+1, leftOpts, lim, la)
	if err != nil {
		return nil, err
	}
	grp.Right, err = splitToFit(rightSub, rightV, rightD, usable, depth+1, rightOpts, lim, ra)
	if err != nil {
		return nil, err
	}
	return grp, nil
}

// serversNeeded returns the lower bound on servers for a demand: the
// ceiling of the dominant dimension's demand/usable ratio.
func serversNeeded(demand, usable resources.Vector) int {
	r := 0.0
	for d := range demand {
		if usable[d] > 0 {
			if q := demand[d] / usable[d]; q > r {
				r = q
			}
		}
	}
	k := int(r)
	if float64(k) < r {
		k++
	}
	return k
}

func collectLeaves(g *Group, out *[]*Group) {
	if g == nil {
		return
	}
	if g.IsLeaf() {
		*out = append(*out, g)
		return
	}
	collectLeaves(g.Left, out)
	collectLeaves(g.Right, out)
}

// KWay partitions g into exactly k balanced parts by recursive bisection
// (Eq. 3 balance, Eq. 1 objective). It returns part[v] ∈ [0, k) and the cut
// weight. k ≤ 0 panics; k ≥ n puts every vertex in its own part.
func KWay(g *graph.Graph, k int, opts Options) ([]int, float64) {
	if k <= 0 {
		panic(fmt.Sprintf("partition: KWay with k=%d", k))
	}
	n := g.NumVertices()
	part := make([]int, n)
	if k == 1 || n == 0 {
		return part, 0
	}
	if k >= n {
		for v := 0; v < n; v++ {
			part[v] = v
		}
		return part, g.CutWeightK(part)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	next := 0
	kwaySplit(g, all, k, opts, &next, part)
	return part, g.CutWeightK(part)
}

func kwaySplit(g *graph.Graph, vertices []int, k int, opts Options, next *int, part []int) {
	if k == 1 || len(vertices) <= 1 {
		id := *next
		*next++
		for _, v := range vertices {
			part[v] = id
		}
		return
	}
	kLeft := k / 2
	kRight := k - kLeft
	sub, toOrig := g.Subgraph(vertices)
	subOpts := opts
	subOpts.Seed = deriveSeed(opts.Seed, saltKWay, uint64(vertices[0]), uint64(len(vertices)), uint64(k))
	frac := float64(kRight) / float64(k) // side 1 feeds the right recursion
	bis := BisectFraction(sub, subOpts, frac)

	var leftV, rightV []int
	for sv, side := range bis.Side {
		if side == 0 {
			leftV = append(leftV, toOrig[sv])
		} else {
			rightV = append(rightV, toOrig[sv])
		}
	}
	if len(leftV) == 0 || len(rightV) == 0 {
		mid := len(vertices) * kLeft / k
		if mid == 0 {
			mid = 1
		}
		leftV, rightV = vertices[:mid], vertices[mid:]
	}
	kwaySplit(g, leftV, kLeft, opts, next, part)
	kwaySplit(g, rightV, kRight, opts, next, part)
}
