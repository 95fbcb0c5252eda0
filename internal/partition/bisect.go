package partition

import (
	"goldilocks/internal/graph"
	"goldilocks/internal/resources"
	"goldilocks/internal/telemetry"
)

// Bisection is the result of a two-way partition.
type Bisection struct {
	// Side maps each vertex to 0 or 1.
	Side []int
	// Cut is the total weight of edges crossing the bisection (the Eq. 1
	// objective for the two-way case). It can be negative when
	// anti-affinity edges are cut.
	Cut float64
}

// Bisect computes a balanced min-cut bisection of g using the multilevel
// scheme: coarsen by heavy-edge matching, bisect the coarsest graph with
// greedy graph growing, then uncoarsen with FM refinement at every level.
// Graphs with fewer than 2 vertices return a trivial all-zero bisection.
//
// The graph is flattened once into a pooled CSR arena; the entire
// multilevel pipeline then runs on flat arrays (see csr.go).
func Bisect(g *graph.Graph, opts Options) Bisection {
	opts = opts.withDefaults()
	n := g.NumVertices()
	if n < 2 {
		return Bisection{Side: make([]int, n)}
	}
	a := getArena(n)
	sub := a.buildRootCSR(g)
	cut := bisectCSR(sub, opts, 0.5, a)
	side := make([]int, n)
	for v := range side {
		side[v] = int(a.side[v])
	}
	putArena(a)
	return Bisection{Side: side, Cut: cut}
}

// bisectCSR computes a balanced min-cut bisection of the arena's subproblem
// graph g, writing the side assignment into a.side (grown to g.n) and
// returning the cut weight. frac is side 1's target weight share, in
// (0, 1); other values mean 0.5. Uneven splits keep every final part near
// its share of the weight (Eq. 3): KWay uses frac = ceil(k/2)/k, the
// recursive drivers their server-count proportions. opts must already be
// defaulted. The whole bisection is serial; parallelism lives in the
// recursive fan-outs that call it.
//
//goldilocks:hotpath
func bisectCSR(g *csrGraph, opts Options, frac float64, a *levelArena) float64 {
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	n := g.n
	out := growI8(&a.side, n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	if n < 2 {
		for i := range out {
			out[i] = 0
		}
		return 0
	}

	// dspan gates per-bisection internals: nil (and therefore free) unless
	// the caller asked for detail.
	var dspan *telemetry.Span
	if opts.TraceDetail {
		dspan = opts.Trace
	}

	cspan := dspan.Child("coarsen")
	nl := coarsen(g, opts, a)
	coarsest := g
	if nl > 0 {
		coarsest = &a.levels[nl-1].g
	}
	cspan.SetInt("levels", nl)
	cspan.SetInt("coarsest_vertices", coarsest.n)
	cspan.End()

	sideOf := out
	if nl > 0 {
		sideOf = growI8(&a.levels[nl-1].side, coarsest.n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	}
	initialBisection(coarsest, dspan, opts, frac, initialTries, a, sideOf)
	rspan := dspan.Child("refine")
	rspan.SetInt("level", nl)
	rspan.SetInt("vertices", coarsest.n)
	cut := refineGated(coarsest, sideOf, opts, frac, rspan, a)
	rspan.SetFloat("cut", cut)
	rspan.End()

	for i := nl - 1; i >= 0; i-- {
		lvl := a.levels[i]
		fineGraph := g
		fineSide := out
		if i > 0 {
			fineGraph = &a.levels[i-1].g
			fineSide = growI8(&a.levels[i-1].side, fineGraph.n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
		}
		projectSide(lvl, sideOf, fineSide)
		sideOf = fineSide
		lspan := dspan.Child("refine")
		lspan.SetInt("level", i)
		lspan.SetInt("vertices", fineGraph.n)
		cut = refineGated(fineGraph, sideOf, opts, frac, lspan, a)
		lspan.SetFloat("cut", cut)
		lspan.End()
	}
	return cut
}

// refineGated runs FM refinement unless the sharded pre-split's refine cap
// excludes this level (opts.presplitRefineCap > 0 and the level is larger).
// Skipped levels still return the projected side's cut so span attributes
// and the split ladder's tie-break stay meaningful.
//
//goldilocks:hotpath
func refineGated(g *csrGraph, sideOf []int8, opts Options, frac float64, span *telemetry.Span, a *levelArena) float64 {
	if opts.presplitRefineCap > 0 && g.n > opts.presplitRefineCap {
		span.SetInt("skipped", 1)
		return g.cutWeight(sideOf)
	}
	return fmRefine(g, sideOf, opts.BalanceEps, frac, fmPasses, span, &a.fm)
}

// initialBisection produces a balanced starting bisection of a (small)
// graph by greedy graph growing, writing the winner into out: grow a region
// from a seed vertex, always absorbing the frontier vertex with the largest
// attraction to the region, until the region holds roughly frac of the
// total weight. The tries (bisectCSR runs initialTries) run serially on
// arena memory; each picks its seed vertex with the first Intn draw of a
// generator seeded from (opts.Seed, try), computed directly by firstIntn,
// and gets initialTryFMPasses of FM refinement. out starts as a
// weight-balanced fallback split, which stands when growing cannot
// balance (e.g. all edges negative); a try replaces it only on a strictly
// lower cut, so the earliest try wins ties. A try that leaves a side empty
// never wins: with all-zero weights growth absorbs every vertex, balance
// holds vacuously, and its cut of 0 would otherwise beat any real split.
//
//goldilocks:hotpath
func initialBisection(g *csrGraph, dspan *telemetry.Span, opts Options, frac float64, tries int, a *levelArena, out []int8) {
	n := g.n
	target := g.totalVertexWeight().Scale(frac)

	ispan := dspan.Child("initial")
	balancedFallback(g, frac, a, out)
	bestCut := g.cutWeight(out)
	for try := 0; try < tries; try++ {
		tspan := ispan.Child("try")
		tspan.SetInt("try", try)
		seedVertex := a.firstIntn(deriveSeed(opts.Seed, saltInitial, uint64(try)), n)
		side := growFromSeed(g, int32(seedVertex), target, a)
		bal := newBalanceState(g, side, opts.BalanceEps, frac)
		if !bal.isBalanced() {
			tspan.SetStr("outcome", "unbalanced")
			tspan.End()
			continue
		}
		cut := fmRefine(g, side, opts.BalanceEps, frac, initialTryFMPasses, nil, &a.fm)
		tspan.SetFloat("cut", cut)
		tspan.End()
		if cut < bestCut && !oneSided(side) {
			bestCut = cut
			copy(out, side)
		}
	}
	ispan.SetFloat("best_cut", bestCut)
	ispan.End()
}

// oneSided reports whether every vertex of a bisection lies on one side.
func oneSided(side []int8) bool {
	for _, s := range side {
		if s != side[0] {
			return false
		}
	}
	return true
}

// growFromSeed grows side 1 from the seed until its weight reaches the
// target in some positive dimension, using the arena's try buffers. The
// returned side slice is a.trySide.
//
//goldilocks:hotpath
func growFromSeed(g *csrGraph, seed int32, target resources.Vector, a *levelArena) []int8 {
	n := g.n
	side := growI8(&a.trySide, n)         //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	inRegion := growBool(&a.inRegion, n)  //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	attraction := growF(&a.attraction, n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	for i := 0; i < n; i++ {
		side[i] = 0
		inRegion[i] = false
		attraction[i] = 0
	}

	var grown resources.Vector
	cur := seed
	for {
		// Absorb cur into the region.
		inRegion[cur] = true
		side[cur] = 1
		grown = grown.Add(g.vw[cur])
		for k := g.xadj[cur]; k < g.xadj[cur+1]; k++ {
			if to := g.adj[k]; !inRegion[to] {
				attraction[to] += g.w[k]
			}
		}
		// Stop once any dimension with a positive target is reached;
		// with comparable vertices this lands near the balance point.
		reached := false
		for d := range grown {
			if target[d] > 0 && grown[d] >= target[d] {
				reached = true
				break
			}
		}
		if reached {
			break
		}
		best, bestA := int32(-1), 0.0
		for v := int32(0); v < int32(n); v++ {
			if inRegion[v] {
				continue
			}
			if best < 0 || attraction[v] > bestA {
				best, bestA = v, attraction[v]
			}
		}
		if best < 0 {
			break // everything absorbed
		}
		cur = best
	}
	return side
}

// balancedFallback splits vertices greedily by descending dominant weight,
// assigning each to the side furthest below its target share — an LPT-style
// split that is always legal, used when graph growing cannot achieve
// balance. Side 1 targets share frac of the total. The keys are computed
// once per vertex into arena scratch (the legacy implementation recomputed
// them inside the sort comparisons — same values, quadratically more work).
//
//goldilocks:hotpath
func balancedFallback(g *csrGraph, frac float64, a *levelArena, side []int8) {
	n := g.n
	total := g.totalVertexWeight()
	order := growI32(&a.order, n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	keys := growF(&a.keys, n)     //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	for v := 0; v < n; v++ {
		order[v] = int32(v)
		keys[v] = g.vw[v].Normalize(total).Sum()
	}
	// Insertion sort by descending key; coarsest graphs are small.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && keys[order[j]] > keys[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var w0, w1 float64
	share := [2]float64{1 - frac, frac}
	for _, v := range order {
		k := keys[v]
		// Assign to the side with the lower filled fraction of its
		// target share.
		if w0/share[0] <= w1/share[1] {
			side[v] = 0
			w0 += k
		} else {
			side[v] = 1
			w1 += k
		}
	}
	// Guarantee both sides non-empty for n >= 2.
	if n >= 2 {
		seen := [2]bool{}
		for _, s := range side[:n] {
			seen[s] = true
		}
		if !seen[0] {
			side[order[n-1]] = 0
		}
		if !seen[1] {
			side[order[n-1]] = 1
		}
	}
}
