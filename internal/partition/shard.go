package partition

// Topology-sharded partitioning (DESIGN.md §5.1.10). The flat pipeline's
// wall at data-center scale is the serial FM move loop of the top-level
// bisections: its gain heap is inherently sequential, and a CPU profile of
// a 10⁵-container power-law graph puts the move loop and heap at ~93% of
// the time, against ~3.5% for matching, contraction and gain-init combined.
// Sharding bounds each partitioner instance's n instead of parallelizing
// inside it:
//
//  1. pre-split — recursive cheap bisections cut the container graph into
//     ShardCount shards. Levels larger than presplitRefineMaxN skip FM
//     refinement entirely (see refineGated): the pre-split only needs a
//     topology-shaped cut — the paper's capacity-graph observation is that
//     the longest (inter-pod) edges are cut first, so a coarsening-driven
//     split approximates the top-level bisection — and the shards and the
//     stitch recover the quality.
//  2. shard — each shard runs the full fit-driven splitToFit pipeline
//     concurrently, with its own levelArena and CSR scratch, so the PR 5
//     allocation-free contract holds per shard and no state is shared.
//  3. stitch — a serial, fixed-order frontier pass re-homes
//     cut-straddling containers: every vertex with a neighbor in another
//     shard is offered to the adjacent leaves, moves apply only on a
//     strict cut improvement within capacity, and equal-gain destinations
//     are broken by seeded splitmix64 keys. Serial and fixed-order means
//     the stitch — and therefore the whole sharded mode — is bit-identical
//     at every Options.Parallelism.
//
// The output differs from the flat pipeline's (the pre-split replaces the
// top-level bisections), but is deterministic in exactly the same sense.

import (
	"fmt"
	"sync"

	"goldilocks/internal/graph"
	"goldilocks/internal/resources"
	"goldilocks/internal/telemetry"
)

// ShardAutoMinN is the container-graph size above which the scheduler
// auto-enables sharding (Options.ShardCount = the topology's pod count).
// Below it the flat pipeline (recursive fan-out plus concurrent
// initial-bisection tries) is already fast and its output is pinned by the
// legacy differential suite; above it the serial FM move loop of the
// top-level bisections dominates the critical path, and only bounding each
// instance's n shortens it.
const ShardAutoMinN = 65536

// presplitRefineMaxN caps FM refinement inside pre-split bisections:
// levels with more vertices than this skip the serial move loop. The cap
// keeps the pre-split's serial stage bounded while still refining the
// coarse levels, where moves are cheap and most of the cut quality lives.
const presplitRefineMaxN = 32768

// shardState is the read-mostly context threaded through the shard
// recursion. shardOf is written once per vertex at shard leaves —
// concurrent branches write disjoint index sets, so no synchronization is
// needed and the content is schedule-invariant.
type shardState struct {
	usable  resources.Vector
	shardOf []int32
}

// partitionSharded is PartitionToFit's ShardCount ≥ 2 path: pre-split,
// concurrent per-shard fit-driven partitioning, deterministic stitch.
func partitionSharded(g *graph.Graph, all []int, demand, usable resources.Vector, opts Options) (*Tree, error) {
	n := len(all)
	span := opts.Trace.Child("partition")
	span.SetInt("vertices", n)
	span.SetInt("shards", opts.ShardCount)

	st := &shardState{usable: usable, shardOf: make([]int32, n)}
	sOpts := opts
	sOpts.Trace = span.Child("presplit")
	a := getArena(n)
	sub := a.buildRootCSRNormalized(g)
	root, err := st.shardSplit(sub, all, demand, opts.ShardCount, 0, 0, sOpts, NewLimiter(opts.Parallelism), a)
	if err != nil {
		span.SetStr("error", err.Error())
		span.End()
		return nil, err
	}
	t := &Tree{Root: root}
	collectLeaves(root, &t.Leaves)

	sspan := span.Child("stitch")
	moves := stitchFrontier(g, t, st.shardOf, usable, opts, sspan)
	sspan.End()

	t.Cut = g.CutWeightK(t.Assignment(n))
	span.SetInt("leaves", len(t.Leaves))
	span.SetInt("stitch_moves", moves)
	span.SetFloat("cut", t.Cut)
	span.End()
	return t, nil
}

// shardChildName labels a shard-recursion child span: single shards get
// an "epoch NNN"-style indexed name ("shard 003") that obs.Stage collapses
// to the "shard" stage and obs.ShardRoot parses back for per-shard
// rollups; multi-shard children are further pre-split levels.
func shardChildName(k, base int) string {
	if k <= 1 {
		return fmt.Sprintf("shard %03d", base)
	}
	return "presplit"
}

// shardSplit recursively pre-splits the subproblem into k shards, then
// hands each shard to the full fit-driven pipeline. The arena discipline
// mirrors splitToFit: the callee owns a, leaves (here: shards) consume it
// in their splitToFit run, inner nodes compact the left child into it in
// place and draw a fresh arena only for the right child.
func (st *shardState) shardSplit(sub *csrGraph, vertices []int, demand resources.Vector, k, base, depth int, opts Options, lim Limiter, a *levelArena) (*Group, error) {
	if k <= 1 || len(vertices) < 2*k {
		// A single shard (or one too small to split k ways — possible when
		// a lopsided pre-split starves a branch): mark the membership for
		// the stitch frontier and run the flat pipeline on it. opts.Trace
		// is this shard's own span; splitToFit owns and ends it.
		for _, ov := range vertices {
			st.shardOf[ov] = int32(base)
		}
		shOpts := opts
		shOpts.presplitRefineCap = 0
		return splitToFit(sub, vertices, demand, st.usable, depth, shOpts, lim, a)
	}

	span := opts.Trace
	span.SetInt("depth", depth)
	span.SetInt("vertices", len(vertices))
	span.SetInt("shards", k)
	defer span.End()

	// One cheap bisection per pre-split level: seeds derive from the
	// subproblem's structural coordinates (never from scheduling), the
	// refine cap skips the serial FM move loop on huge levels, and the
	// weight fraction follows the shard-count split so every shard ends up
	// with ~1/k of the demand (the splitToFit server-proportion idea).
	kl := (k + 1) / 2
	kr := k - kl
	frac := float64(kr) / float64(k)
	bOpts := opts
	bOpts.Seed = deriveSeed(opts.Seed, saltShard,
		uint64(depth), uint64(vertices[0]), uint64(len(vertices)), uint64(k))
	bOpts.presplitRefineCap = presplitRefineMaxN
	bspan := span.Child("bisect")
	bOpts.Trace = bspan
	cut := bisectCSR(sub, bOpts, frac, lim, a)
	bspan.SetFloat("cut", cut)
	bspan.End()

	n := sub.n
	side := a.side
	nLeft := 0
	for sv := 0; sv < n; sv++ {
		if side[sv] == 0 {
			nLeft++
		}
	}
	var leftV, rightV []int
	var leftD, rightD resources.Vector
	if nLeft == 0 || nLeft == n {
		// Defensive index split, as in splitToFit: local ids ascend in
		// original ids, so the index split agrees between vertices and side.
		mid := len(vertices) / 2
		leftV, rightV = vertices[:mid], vertices[mid:]
		for sv := 0; sv < mid; sv++ {
			side[sv] = 0
			leftD = leftD.Add(sub.vw[sv])
		}
		for sv := mid; sv < n; sv++ {
			side[sv] = 1
			rightD = rightD.Add(sub.vw[sv])
		}
	} else {
		leftV = make([]int, 0, nLeft)
		rightV = make([]int, 0, n-nLeft)
		for sv := 0; sv < n; sv++ {
			ov := int(sub.toOrig[sv])
			if side[sv] == 0 {
				leftV = append(leftV, ov)
				leftD = leftD.Add(sub.vw[sv])
			} else {
				rightV = append(rightV, ov)
				rightD = rightD.Add(sub.vw[sv])
			}
		}
	}

	ra := getArena(len(rightV))
	rightSub := extractChild(sub, side, 1, a, ra)
	la := a
	leftSub := extractChild(sub, side, 0, a, a)

	// Child spans are created here, sequentially, before any fork (the
	// telemetry single-owner rule); the right branch runs on a spare
	// worker slot when one is free, exactly like splitToFit's fan-out.
	leftOpts, rightOpts := opts, opts
	leftOpts.Trace = span.Child(shardChildName(kl, base))
	rightOpts.Trace = span.Child(shardChildName(kr, base+kl))
	grp := &Group{Vertices: vertices, Demand: demand, Depth: depth}
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
			rightGrp, rightErr = st.shardSplit(rightSub, rightV, rightD, kr, base+kl, depth+1, rightOpts, lim, ra)
		}()
		grp.Left, err = st.shardSplit(leftSub, leftV, leftD, kl, base, depth+1, leftOpts, lim, la)
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
	grp.Left, err = st.shardSplit(leftSub, leftV, leftD, kl, base, depth+1, leftOpts, lim, la)
	if err != nil {
		return nil, err
	}
	grp.Right, err = st.shardSplit(rightSub, rightV, rightD, kr, base+kl, depth+1, rightOpts, lim, ra)
	if err != nil {
		return nil, err
	}
	return grp, nil
}

// stitchFrontier re-homes cut-straddling containers after the per-shard
// partitions: every vertex with a neighbor in a different shard is offered
// to the leaves its neighbors live in, and moves when that strictly
// reduces the cut without overfilling the destination leaf or emptying the
// source. The worklist starts in ascending vertex order and every applied
// move re-offers the mover's neighbors, so the pass is an FM-style
// boundary refinement restricted to the frontier region. The whole pass is
// serial and fixed-order — by construction invariant under
// Options.Parallelism — with seeded splitmix64 keys breaking equal-gain
// destination ties. Returns the number of applied moves; when > 0, the
// group tree is rebuilt bottom-up from the new leaf assignment.
func stitchFrontier(g *graph.Graph, t *Tree, shardOf []int32, usable resources.Vector, opts Options, span *telemetry.Span) int {
	n := g.NumVertices()
	nl := len(t.Leaves)
	if nl < 2 {
		return 0
	}
	part := make([]int32, n)
	for li, leaf := range t.Leaves {
		for _, v := range leaf.Vertices {
			part[v] = int32(li)
		}
	}
	leafDemand := make([]resources.Vector, nl)
	leafCount := make([]int, nl)
	for li, leaf := range t.Leaves {
		leafDemand[li] = leaf.Demand
		leafCount[li] = len(leaf.Vertices)
	}

	inQueue := make([]bool, n)
	queue := make([]int, 0, 1024)
	for v := 0; v < n; v++ {
		for _, e := range g.Neighbors(v) {
			if shardOf[e.To] != shardOf[v] {
				queue = append(queue, v)
				inQueue[v] = true
				break
			}
		}
	}
	span.SetInt("frontier", len(queue))
	if len(queue) == 0 {
		return 0
	}

	// maxMoves bounds the strictly-improving pass: floating-point gains
	// can be arbitrarily small, so termination by cut decrease alone has
	// no useful bound. The cap is a function of the initial frontier only,
	// hence deterministic.
	maxMoves := 8*len(queue) + 64
	attach := make([]float64, nl)
	seen := make([]bool, nl)
	cand := make([]int32, 0, 16)
	moves := stitchWorklist(g, part, leafDemand, leafCount, usable, opts.Seed,
		queue, inQueue, attach, seen, cand, maxMoves)
	span.SetInt("moves", moves)
	if moves == 0 {
		return 0
	}
	rebuildGroups(t, part, g)
	return moves
}

// stitchWorklist drains the frontier worklist. Split out so the move loop
// is a leaf function over preallocated scratch.
//
//goldilocks:hotpath
func stitchWorklist(g *graph.Graph, part []int32, leafDemand []resources.Vector, leafCount []int,
	usable resources.Vector, seed int64, queue []int, inQueue []bool,
	attach []float64, seen []bool, cand []int32, maxMoves int) int {
	moves := 0
	for head := 0; head < len(queue) && moves < maxMoves; head++ {
		v := queue[head]
		inQueue[v] = false
		cur := part[v]

		// Attachment per adjacent leaf, candidates in first-seen neighbor
		// order (graph adjacency order is deterministic).
		cand = cand[:0]
		seen[cur] = true
		attach[cur] = 0
		cand = append(cand, cur)
		for _, e := range g.Neighbors(v) {
			c := part[e.To]
			if !seen[c] {
				seen[c] = true
				attach[c] = 0
				cand = append(cand, c)
			}
			if e.To != v {
				attach[c] += e.Weight
			}
		}

		best := cur
		bestGain := 0.0
		bestKey := uint64(0)
		w := g.VertexWeight(v)
		if leafCount[cur] > 1 {
			for _, c := range cand {
				if c == cur {
					continue
				}
				gain := attach[c] - attach[cur]
				if gain <= 0 || gain < bestGain {
					continue
				}
				if !leafDemand[c].Add(w).Fits(usable) {
					continue
				}
				key := splitmix64(uint64(seed) ^ saltStitch ^ splitmix64(uint64(v)<<20|uint64(c)))
				if gain > bestGain || best == cur || key < bestKey {
					best, bestGain, bestKey = c, gain, key
				}
			}
		}
		for _, c := range cand {
			seen[c] = false
		}

		if best == cur {
			continue
		}
		leafDemand[cur] = leafDemand[cur].Sub(w)
		leafDemand[best] = leafDemand[best].Add(w)
		leafCount[cur]--
		leafCount[best]++
		part[v] = best
		moves++
		for _, e := range g.Neighbors(v) {
			if !inQueue[e.To] {
				inQueue[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return moves
}

// rebuildGroups rewrites every group's Vertices and Demand from the
// stitched assignment: leaves get their new vertex sets in ascending order
// (the scan is ascending), inner nodes merge their children bottom-up, so
// the tree's invariants (ascending Vertices, Demand = sum of children)
// hold exactly as the flat pipeline establishes them.
func rebuildGroups(t *Tree, part []int32, g *graph.Graph) {
	counts := make([]int, len(t.Leaves))
	for _, li := range part {
		counts[li]++
	}
	for li, leaf := range t.Leaves {
		leaf.Vertices = make([]int, 0, counts[li])
		leaf.Demand = resources.Vector{}
	}
	for v, li := range part {
		leaf := t.Leaves[li]
		leaf.Vertices = append(leaf.Vertices, v)
		leaf.Demand = leaf.Demand.Add(g.VertexWeight(v))
	}
	var rebuild func(grp *Group) ([]int, resources.Vector)
	rebuild = func(grp *Group) ([]int, resources.Vector) {
		if grp.IsLeaf() {
			return grp.Vertices, grp.Demand
		}
		lv, ld := rebuild(grp.Left)
		rv, rd := rebuild(grp.Right)
		grp.Vertices = mergeSorted(lv, rv)
		grp.Demand = ld.Add(rd)
		return grp.Vertices, grp.Demand
	}
	rebuild(t.Root)
}

// mergeSorted merges two ascending int slices into a fresh ascending slice.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
