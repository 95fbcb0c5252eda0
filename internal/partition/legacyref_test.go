package partition

// Differential regression against the pre-CSR implementation. The flat-CSR
// rewrite (csr.go) promises *bit-identical* partitions to the original
// adjacency-list pipeline — same RNG draws, same float accumulation orders,
// same heap tie-breaking. This file carries a test-only, serial copy of that
// original pipeline (container/heap FM, graph.Graph coarsening, rng.Perm
// matching, Subgraph recursion) and asserts the live implementation matches
// it exactly on randomized graphs, including negative anti-affinity edges.
// If an optimization ever changes an iteration order, these tests name the
// first diverging structure instead of letting the determinism contract
// drift silently. The reference FM carries the one deliberate algorithm
// change since the copy was taken, the fmStallLimit pass bound, so the
// suite keeps checking the CSR port rather than the old stopping rule.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"goldilocks/internal/graph"
	"goldilocks/internal/resources"
)

type legacyCoarseLevel struct {
	g            *graph.Graph
	fineToCoarse []int
}

func legacyHeavyEdgeMatching(g *graph.Graph, rng *rand.Rand) []int {
	n := g.NumVertices()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		best := -1
		bestW := 0.0
		for _, e := range g.Neighbors(v) {
			if e.Weight <= 0 || match[e.To] >= 0 {
				continue
			}
			if e.Weight > bestW {
				bestW = e.Weight
				best = e.To
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	return match
}

func legacyContract(g *graph.Graph, match []int) legacyCoarseLevel {
	n := g.NumVertices()
	fineToCoarse := make([]int, n)
	for i := range fineToCoarse {
		fineToCoarse[i] = -1
	}
	next := 0
	for v := 0; v < n; v++ {
		if fineToCoarse[v] >= 0 {
			continue
		}
		fineToCoarse[v] = next
		if m := match[v]; m != v && fineToCoarse[m] < 0 {
			fineToCoarse[m] = next
		}
		next++
	}
	cg := graph.New(next)
	for v := 0; v < n; v++ {
		cv := fineToCoarse[v]
		cg.SetVertexWeight(cv, cg.VertexWeight(cv).Add(g.VertexWeight(v)))
	}
	for v := 0; v < n; v++ {
		cv := fineToCoarse[v]
		for _, e := range g.Neighbors(v) {
			if v >= e.To {
				continue
			}
			cu := fineToCoarse[e.To]
			if cu != cv {
				cg.AddEdge(cv, cu, e.Weight)
			}
		}
	}
	return legacyCoarseLevel{g: cg, fineToCoarse: fineToCoarse}
}

func legacyCoarsen(g *graph.Graph, opts Options) []legacyCoarseLevel {
	var levels []legacyCoarseLevel
	cur := g
	for cur.NumVertices() > coarsenTo {
		rng := rand.New(rand.NewSource(deriveSeed(opts.Seed, saltCoarsen, uint64(len(levels)))))
		match := legacyHeavyEdgeMatching(cur, rng)
		lvl := legacyContract(cur, match)
		if float64(lvl.g.NumVertices()) > 0.95*float64(cur.NumVertices()) {
			break
		}
		levels = append(levels, lvl)
		cur = lvl.g
	}
	return levels
}

func legacyProjectSide(lvl legacyCoarseLevel, coarseSide []int) []int {
	fine := make([]int, len(lvl.fineToCoarse))
	for v, cv := range lvl.fineToCoarse {
		fine[v] = coarseSide[cv]
	}
	return fine
}

type legacyBalanceState struct {
	side    [2]resources.Vector
	count   [2]int
	maxSide [2]resources.Vector
}

func newLegacyBalanceState(g *graph.Graph, sideOf []int, eps, frac float64) *legacyBalanceState {
	b := &legacyBalanceState{}
	total := g.TotalVertexWeight()
	for v := 0; v < g.NumVertices(); v++ {
		s := sideOf[v]
		b.side[s] = b.side[s].Add(g.VertexWeight(v))
		b.count[s]++
	}
	b.maxSide[1] = total.Scale(frac * (1 + eps))
	b.maxSide[0] = total.Scale((1 - frac) * (1 + eps))
	return b
}

func (b *legacyBalanceState) canMove(w resources.Vector, from int) bool {
	if b.count[from] <= 1 {
		return false
	}
	to := 1 - from
	return b.side[to].Add(w).Fits(b.maxSide[to])
}

func (b *legacyBalanceState) apply(w resources.Vector, from int) {
	to := 1 - from
	b.side[from] = b.side[from].Sub(w)
	b.side[to] = b.side[to].Add(w)
	b.count[from]--
	b.count[to]++
}

func (b *legacyBalanceState) isBalanced() bool {
	return b.side[0].Fits(b.maxSide[0]) && b.side[1].Fits(b.maxSide[1])
}

type legacyGainItem struct {
	v     int
	gain  float64
	stamp uint64
}

type legacyGainHeap []legacyGainItem

func (h legacyGainHeap) Len() int            { return len(h) }
func (h legacyGainHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h legacyGainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *legacyGainHeap) Push(x interface{}) { *h = append(*h, x.(legacyGainItem)) }
func (h *legacyGainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func legacyFMRefine(g *graph.Graph, sideOf []int, opts Options, frac float64, passes int) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	bal := newLegacyBalanceState(g, sideOf, opts.BalanceEps, frac)
	cut := g.CutWeight(sideOf)

	gains := make([]float64, n)
	stamps := make([]uint64, n)
	locked := make([]bool, n)
	var moves []int

	computeGain := func(v int) float64 {
		gain := 0.0
		for _, e := range g.Neighbors(v) {
			if sideOf[e.To] == sideOf[v] {
				gain -= e.Weight
			} else {
				gain += e.Weight
			}
		}
		return gain
	}

	for pass := 0; pass < passes; pass++ {
		var h legacyGainHeap
		for v := 0; v < n; v++ {
			locked[v] = false
			gains[v] = computeGain(v)
			stamps[v]++
			h = append(h, legacyGainItem{v: v, gain: gains[v], stamp: stamps[v]})
		}
		heap.Init(&h)

		moves = moves[:0]
		curCut := cut
		bestCut := cut
		bestPrefix := 0
		var deferred []legacyGainItem

		for h.Len() > 0 {
			it := heap.Pop(&h).(legacyGainItem)
			if it.stamp != stamps[it.v] || locked[it.v] {
				continue
			}
			v := it.v
			if !bal.canMove(g.VertexWeight(v), sideOf[v]) {
				deferred = append(deferred, it)
				if h.Len() == 0 {
					break
				}
				continue
			}
			bal.apply(g.VertexWeight(v), sideOf[v])
			sideOf[v] = 1 - sideOf[v]
			locked[v] = true
			curCut -= it.gain
			moves = append(moves, v)
			if curCut < bestCut-1e-12 {
				bestCut = curCut
				bestPrefix = len(moves)
			} else if len(moves)-bestPrefix >= fmStallLimit {
				break // the live FM's stall rule, same constant
			}
			for _, e := range g.Neighbors(v) {
				u := e.To
				if locked[u] {
					continue
				}
				if sideOf[u] == sideOf[v] {
					gains[u] -= 2 * e.Weight
				} else {
					gains[u] += 2 * e.Weight
				}
				stamps[u]++
				heap.Push(&h, legacyGainItem{v: u, gain: gains[u], stamp: stamps[u]})
			}
			for _, d := range deferred {
				if !locked[d.v] && d.stamp == stamps[d.v] {
					heap.Push(&h, d)
				}
			}
			deferred = deferred[:0]
		}

		for i := len(moves) - 1; i >= bestPrefix; i-- {
			v := moves[i]
			bal.apply(g.VertexWeight(v), sideOf[v])
			sideOf[v] = 1 - sideOf[v]
		}
		if bestCut >= cut-1e-12 {
			cut = bestCut
			break
		}
		cut = bestCut
	}
	return cut
}

func legacyGrowFromSeed(g *graph.Graph, seed int, target resources.Vector) []int {
	n := g.NumVertices()
	side := make([]int, n)
	var grown resources.Vector
	inRegion := make([]bool, n)
	attraction := make([]float64, n)

	reached := func() bool {
		for d := range grown {
			if target[d] > 0 && grown[d] >= target[d] {
				return true
			}
		}
		return false
	}

	add := func(v int) {
		inRegion[v] = true
		side[v] = 1
		grown = grown.Add(g.VertexWeight(v))
		for _, e := range g.Neighbors(v) {
			if !inRegion[e.To] {
				attraction[e.To] += e.Weight
			}
		}
	}

	add(seed)
	for !reached() {
		best, bestA := -1, 0.0
		for v := 0; v < n; v++ {
			if inRegion[v] {
				continue
			}
			if best < 0 || attraction[v] > bestA {
				best, bestA = v, attraction[v]
			}
		}
		if best < 0 {
			break
		}
		add(best)
	}
	return side
}

func legacyBalancedFallback(g *graph.Graph, frac float64) []int {
	n := g.NumVertices()
	total := g.TotalVertexWeight()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	key := func(v int) float64 {
		return g.VertexWeight(v).Normalize(total).Sum()
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && key(order[j]) > key(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	side := make([]int, n)
	var w0, w1 float64
	share := [2]float64{1 - frac, frac}
	for _, v := range order {
		k := key(v)
		if w0/share[0] <= w1/share[1] {
			side[v] = 0
			w0 += k
		} else {
			side[v] = 1
			w1 += k
		}
	}
	if n >= 2 {
		seen := [2]bool{}
		for _, s := range side {
			seen[s] = true
		}
		if !seen[0] {
			side[order[n-1]] = 0
		}
		if !seen[1] {
			side[order[n-1]] = 1
		}
	}
	return side
}

func legacyInitialBisection(g *graph.Graph, opts Options, frac float64) []int {
	n := g.NumVertices()
	total := g.TotalVertexWeight()
	target := total.Scale(frac)

	type tryRes struct {
		side []int
		cut  float64
		ok   bool
	}
	results := make([]tryRes, initialTries)
	for try := 0; try < initialTries; try++ {
		rng := rand.New(rand.NewSource(deriveSeed(opts.Seed, saltInitial, uint64(try))))
		side := legacyGrowFromSeed(g, rng.Intn(n), target)
		bal := newLegacyBalanceState(g, side, opts.BalanceEps, frac)
		if !bal.isBalanced() {
			continue
		}
		cut := legacyFMRefine(g, side, opts, frac, initialTryFMPasses)
		results[try] = tryRes{side: side, cut: cut, ok: true}
	}

	bestSide := legacyBalancedFallback(g, frac)
	bestCut := g.CutWeight(bestSide)
	for _, r := range results {
		if r.ok && r.cut < bestCut {
			bestCut = r.cut
			bestSide = r.side
		}
	}
	return bestSide
}

func legacyBisectFraction(g *graph.Graph, opts Options, frac float64) Bisection {
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	n := g.NumVertices()
	if n < 2 {
		return Bisection{Side: make([]int, n)}
	}

	levels := legacyCoarsen(g, opts)
	coarsest := g
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].g
	}

	side := legacyInitialBisection(coarsest, opts, frac)
	cut := legacyFMRefine(coarsest, side, opts, frac, fmPasses)

	for i := len(levels) - 1; i >= 0; i-- {
		side = legacyProjectSide(levels[i], side)
		fineGraph := g
		if i > 0 {
			fineGraph = levels[i-1].g
		}
		cut = legacyFMRefine(fineGraph, side, opts, frac, fmPasses)
	}
	return Bisection{Side: side, Cut: cut}
}

func legacySplitToFit(g *graph.Graph, vertices []int, demand, usable resources.Vector, depth int, opts Options) (*Group, error) {
	grp := &Group{Vertices: vertices, Demand: demand, Depth: depth}
	if demand.Fits(usable) {
		return grp, nil
	}
	if depth >= maxDepth || len(vertices) < 2 {
		return nil, fmt.Errorf("partition: cannot split group of %d vertices at depth %d to fit %v",
			len(vertices), depth, usable)
	}

	sub, toOrig := g.Subgraph(vertices)
	k := serversNeeded(demand, usable)
	frac := 0.5
	if k >= 2 {
		kLeft := (k + 1) / 2
		frac = float64(k-kLeft) / float64(k)
	}

	var bestSide []int
	bestBudget, bestCut := int(^uint(0)>>1), 0.0
	epsLadder := []float64{opts.BalanceEps, opts.BalanceEps * 2, opts.BalanceEps * 4}
	for try := 0; try < len(epsLadder); try++ {
		subOpts := opts
		subOpts.BalanceEps = epsLadder[try]
		subOpts.Seed = deriveSeed(opts.Seed, saltSplit,
			uint64(depth), uint64(vertices[0]), uint64(len(vertices)), uint64(try))
		bis := legacyBisectFraction(sub, subOpts, frac)
		var ld, rd resources.Vector
		for sv, side := range bis.Side {
			w := g.VertexWeight(toOrig[sv])
			if side == 0 {
				ld = ld.Add(w)
			} else {
				rd = rd.Add(w)
			}
		}
		budget := serversNeeded(ld, usable) + serversNeeded(rd, usable)
		if budget < bestBudget || (budget == bestBudget && bis.Cut < bestCut) {
			bestBudget, bestCut = budget, bis.Cut
			bestSide = bis.Side
		}
		if budget <= k {
			break
		}
	}

	var leftV, rightV []int
	var leftD, rightD resources.Vector
	for sv, side := range bestSide {
		ov := toOrig[sv]
		if side == 0 {
			leftV = append(leftV, ov)
			leftD = leftD.Add(g.VertexWeight(ov))
		} else {
			rightV = append(rightV, ov)
			rightD = rightD.Add(g.VertexWeight(ov))
		}
	}
	if len(leftV) == 0 || len(rightV) == 0 {
		mid := len(vertices) / 2
		leftV, rightV = vertices[:mid], vertices[mid:]
		leftD, rightD = resources.Vector{}, resources.Vector{}
		for _, v := range leftV {
			leftD = leftD.Add(g.VertexWeight(v))
		}
		for _, v := range rightV {
			rightD = rightD.Add(g.VertexWeight(v))
		}
	}

	var err error
	grp.Left, err = legacySplitToFit(g, leftV, leftD, usable, depth+1, opts)
	if err != nil {
		return nil, err
	}
	grp.Right, err = legacySplitToFit(g, rightV, rightD, usable, depth+1, opts)
	if err != nil {
		return nil, err
	}
	return grp, nil
}

func legacyPartitionToFit(g *graph.Graph, usable resources.Vector, opts Options) (*Tree, error) {
	opts = opts.withDefaults()

	n := g.NumVertices()
	all := make([]int, n)
	demand := resources.Vector{}
	for v := 0; v < n; v++ {
		all[v] = v
		w := g.VertexWeight(v)
		demand = demand.Add(w)
		if !w.Fits(usable) {
			return nil, fmt.Errorf("%w: vertex %d demands %v but usable capacity is %v",
				ErrVertexTooLarge, v, w, usable)
		}
	}

	root, err := legacySplitToFit(g, all, demand, usable, 0, opts)
	if err != nil {
		return nil, err
	}
	t := &Tree{Root: root}
	collectLeaves(root, &t.Leaves)
	t.Cut = g.CutWeightK(t.Assignment(n))
	return t, nil
}

// legacyKWay is KWay as it was before it ran on the CSR core: every level
// copies its vertex set out with Subgraph and bisects the copy.
func legacyKWay(g *graph.Graph, k int, opts Options) ([]int, float64) {
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
	legacyKWaySplit(g, all, k, opts.withDefaults(), &next, part)
	return part, g.CutWeightK(part)
}

func legacyKWaySplit(g *graph.Graph, vertices []int, k int, opts Options, next *int, part []int) {
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
	bis := legacyBisectFraction(sub, subOpts, frac)

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
	legacyKWaySplit(g, leftV, kLeft, opts, next, part)
	legacyKWaySplit(g, rightV, kRight, opts, next, part)
}

// legacyRefShapes adds randomized shapes beyond detShapes, biased toward the
// orderings the CSR rewrite had to replicate: duplicate AddEdge calls (the
// first-seen accumulate path), high-degree skew, and dense negative-edge
// regions.
func legacyRefShapes() map[string]func(seed int64) *graph.Graph {
	shapes := detShapes()
	shapes["duplicate-edges"] = func(seed int64) *graph.Graph {
		rng := rand.New(rand.NewSource(seed))
		n := 150
		g := unitGraph(n)
		for i := 0; i < 5*n; i++ {
			// Few distinct endpoints: most AddEdge calls accumulate
			// onto an existing edge rather than appending.
			u, v := rng.Intn(n/3)*3, rng.Intn(n)
			g.AddEdge(u, v, float64(1+rng.Intn(7)))
		}
		return g
	}
	shapes["hub-skew"] = func(seed int64) *graph.Graph {
		rng := rand.New(rand.NewSource(seed))
		n := 250
		g := unitGraph(n)
		for v := 1; v < n; v++ {
			g.AddEdge(v, rng.Intn(4), float64(1+rng.Intn(9))) // hub rows
		}
		for i := 0; i < n; i++ {
			w := float64(1 + rng.Intn(9))
			if rng.Intn(4) == 0 {
				w = -w
			}
			g.AddEdge(rng.Intn(n), rng.Intn(n), w)
		}
		return g
	}
	return shapes
}

// TestBisectMatchesLegacy asserts the CSR pipeline reproduces the original
// implementation's bisections bit for bit, at p=1 and under parallel
// fan-out.
func TestBisectMatchesLegacy(t *testing.T) {
	for name, build := range legacyRefShapes() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				g := build(seed)
				opts := DefaultOptions()
				opts.Seed = seed
				want := legacyBisectFraction(g, opts, 0.5)
				for _, p := range []int{1, 4} {
					opts.Parallelism = p
					got := Bisect(g, opts)
					if got.Cut != want.Cut {
						t.Fatalf("p=%d: cut %v, legacy %v", p, got.Cut, want.Cut)
					}
					for v := range want.Side {
						if got.Side[v] != want.Side[v] {
							t.Fatalf("p=%d: vertex %d side %d, legacy %d",
								p, v, got.Side[v], want.Side[v])
						}
					}
				}
			})
		}
	}
}

// TestPartitionToFitMatchesLegacy asserts the full recursive driver —
// ladder retries, budget tie-breaks, subgraph extraction — reproduces the
// original group trees exactly.
func TestPartitionToFitMatchesLegacy(t *testing.T) {
	cap := resources.New(40, 60, 1000)
	for name, build := range legacyRefShapes() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				opts := DefaultOptions()
				opts.Seed = seed
				want, werr := legacyPartitionToFit(build(seed), cap.Scale(0.7), opts)
				for _, p := range []int{1, 8} {
					opts.Parallelism = p
					got, gerr := PartitionToFit(build(seed), cap.Scale(0.7), opts)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("p=%d: error divergence: legacy=%v new=%v", p, werr, gerr)
					}
					if werr != nil {
						continue
					}
					if got.Cut != want.Cut {
						t.Fatalf("p=%d: cut %v, legacy %v", p, got.Cut, want.Cut)
					}
					if err := sameTree(want.Root, got.Root); err != nil {
						t.Fatalf("p=%d: %v", p, err)
					}
				}
			})
		}
	}
}

// TestKWayMatchesLegacy asserts KWay on the CSR core reproduces the
// Subgraph-per-level k-way recursion exactly: same parts, same cut.
func TestKWayMatchesLegacy(t *testing.T) {
	for name, build := range legacyRefShapes() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, k := range []int{2, 3, 5, 7, 16} {
				t.Run(fmt.Sprintf("%s/seed%d/k%d", name, seed, k), func(t *testing.T) {
					g := build(seed)
					opts := DefaultOptions()
					opts.Seed = seed
					want, wantCut := legacyKWay(g, k, opts)
					got, gotCut := KWay(g, k, opts)
					if gotCut != wantCut {
						t.Fatalf("cut %v, legacy %v", gotCut, wantCut)
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("vertex %d in part %d, legacy %d", v, got[v], want[v])
						}
					}
				})
			}
		}
	}
}
