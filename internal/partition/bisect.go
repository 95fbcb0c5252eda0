package partition

import (
	"sync"

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
func Bisect(g *graph.Graph, opts Options) Bisection {
	return BisectFraction(g, opts, 0.5)
}

// BisectFraction is Bisect with an explicit target weight share for side 1.
// frac must be in (0, 1); 0.5 yields an even bisection. K-way partitioning
// with odd k splits with frac = ceil(k/2)/k so each final part still holds
// ~1/k of the weight (Eq. 3).
//
// The graph is flattened once into a pooled CSR arena; the entire
// multilevel pipeline then runs on flat arrays (see csr.go).
func BisectFraction(g *graph.Graph, opts Options, frac float64) Bisection {
	opts = opts.withDefaults()
	n := g.NumVertices()
	if n < 2 {
		return Bisection{Side: make([]int, n)}
	}
	a := getArena(n)
	sub := a.buildRootCSR(g)
	cut := bisectCSR(sub, opts, frac, NewLimiter(opts.Parallelism), a)
	side := make([]int, n)
	for v := range side {
		side[v] = int(a.side[v])
	}
	putArena(a)
	return Bisection{Side: side, Cut: cut}
}

// bisectCSR computes a balanced min-cut bisection of the arena's subproblem
// graph g, writing the side assignment into a.side (grown to g.n) and
// returning the cut weight. opts must already be defaulted; lim is the
// run-wide worker-slot limiter, which here only feeds the concurrent
// initial-bisection tries (coarsening and refinement are serial).
//
//goldilocks:hotpath
func bisectCSR(g *csrGraph, opts Options, frac float64, lim Limiter, a *levelArena) float64 {
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
	initialBisection(coarsest, dspan, opts, frac, lim, a, sideOf)
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
	return fmRefine(g, sideOf, opts, frac, span, &a.fm)
}

// initialBisection produces a balanced starting bisection of a (small)
// graph by greedy graph growing, writing the winner into out: grow a region
// from a seed vertex, always absorbing the frontier vertex with the largest
// attraction to the region, until the region holds roughly frac of the
// total weight. The opts.InitialTries seeds run concurrently when worker
// slots are free — each try owns a pooled tryScratch whose generator is
// re-seeded from (opts.Seed, try), and the winner is chosen by a
// fixed-order reduction (lowest cut, earliest try breaking ties), so the
// result does not depend on completion order. Falls back to a
// weight-balanced split when growing cannot balance (e.g. all edges
// negative).
func initialBisection(g *csrGraph, dspan *telemetry.Span, opts Options, frac float64, lim Limiter, a *levelArena, out []int8) {
	n := g.n
	total := g.totalVertexWeight()
	target := total.Scale(frac)

	quickOpts := opts
	quickOpts.FMPasses = 2

	// Try spans are pre-created sequentially (telemetry single-owner
	// rule); each concurrent try then mutates only its own span.
	ispan := dspan.Child("initial")
	var trySpans []*telemetry.Span
	if ispan.Enabled() {
		trySpans = make([]*telemetry.Span, opts.InitialTries)
		for try := range trySpans {
			trySpans[try] = ispan.Child("try")
			trySpans[try].SetInt("try", try)
		}
	}

	results := a.results[:0]
	for i := 0; i < opts.InitialTries; i++ {
		results = append(results, tryResult{})
	}
	a.results = results

	runTry := func(try int) {
		var tspan *telemetry.Span
		if trySpans != nil {
			tspan = trySpans[try]
		}
		defer tspan.End()
		scr := getTryScratch()
		results[try].scr = scr
		rng := scr.seeded(deriveSeed(opts.Seed, saltInitial, uint64(try)))
		side := growFromSeed(g, int32(rng.Intn(n)), target, scr)
		bal := newBalanceState(g, side, opts.BalanceEps, frac)
		if !bal.isBalanced() {
			tspan.SetStr("outcome", "unbalanced")
			return
		}
		cut := fmRefine(g, side, quickOpts, frac, nil, &scr.fm)
		tspan.SetFloat("cut", cut)
		results[try].cut, results[try].ok = cut, true
	}

	var wg sync.WaitGroup
	for try := 0; try < opts.InitialTries; try++ {
		// The last try runs inline: the caller would otherwise idle.
		if try < opts.InitialTries-1 && lim.TryAcquire() {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				defer lim.Release()
				runTry(t)
			}(try)
		} else {
			runTry(try)
		}
	}
	wg.Wait()

	// Fixed-order reduction, seeded with the always-legal fallback split.
	balancedFallback(g, frac, a, out)
	bestCut := g.cutWeight(out)
	winner := -1
	for try := range results {
		if r := &results[try]; r.ok && r.cut < bestCut {
			bestCut = r.cut
			winner = try
		}
	}
	if winner >= 0 {
		copy(out, results[winner].scr.side)
	}
	for try := range results {
		if results[try].scr != nil {
			putTryScratch(results[try].scr)
			results[try].scr = nil
		}
	}
	ispan.SetFloat("best_cut", bestCut)
	ispan.End()
}

// growFromSeed grows side 1 from the seed until its weight reaches the
// target in some positive dimension, using scr's reused buffers. The
// returned side slice is scr.side.
//
//goldilocks:hotpath
func growFromSeed(g *csrGraph, seed int32, target resources.Vector, scr *tryScratch) []int8 {
	n := g.n
	side := growI8(&scr.side, n)            //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	inRegion := growBool(&scr.inRegion, n)  //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	attraction := growF(&scr.attraction, n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
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
