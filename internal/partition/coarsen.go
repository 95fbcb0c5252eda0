package partition

import (
	"math/rand"

	"goldilocks/internal/resources"
)

// heavyEdgeMatching computes a matching of g greedily by visiting vertices
// in random order and matching each unmatched vertex to its unmatched
// neighbor with the heaviest positive edge. Negative (anti-affinity) edges
// are never matched across: contracting one would glue two replicas into a
// single vertex and make separating them impossible.
//
// The visit order comes from the arena's reused shuffle buffer, which
// replays rand.Perm's draw sequence exactly (see levelArena.permInto), and
// the match array is arena scratch — the call allocates nothing in steady
// state. The returned slice maps each vertex to its match, or to itself
// when unmatched.
//
//goldilocks:hotpath
func heavyEdgeMatching(g *csrGraph, rng *rand.Rand, a *levelArena) []int32 {
	n := g.n
	match := growI32(&a.match, n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	for i := range match {
		match[i] = -1
	}
	order := a.permInto(rng, n)
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		best := int32(-1)
		bestW := 0.0
		adj, w := g.row(v)
		for k, to := range adj {
			if w[k] <= 0 || match[to] >= 0 {
				continue
			}
			if w[k] > bestW {
				bestW = w[k]
				best = to
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

// contract collapses matched vertex pairs into coarse vertices, building the
// coarse graph CSR→CSR into lvl's pooled buffers. Coarse vertex weights are
// the sums of their constituents; parallel edges accumulate. Edges internal
// to a pair vanish (they can never be cut at the coarse level, which is
// exactly the semantics heavy-edge matching wants).
//
// Coarse ids are assigned in first-visit fine order and coarse edges are
// emitted in the fine row-scan order with first-seen-keeps-position
// accumulation (routeHalves dedup), so the coarse graph's adjacency layout —
// and every float sum over it — matches the adjacency-list implementation's
// AddEdge ordering bit for bit.
//
//goldilocks:hotpath
func contract(fine *csrGraph, match []int32, a *levelArena, lvl *csrLevel) {
	n := fine.n
	cmap := growI32(&lvl.cmap, n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	for i := range cmap {
		cmap[i] = -1
	}
	next := int32(0)
	for v := 0; v < n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = next
		if m := match[v]; m != int32(v) && cmap[m] < 0 {
			cmap[m] = next
		}
		next++
	}
	cn := int(next)

	vw := growVecs(&lvl.g.vw, cn) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	for i := range vw {
		vw[i] = resources.Vector{}
	}
	for v := 0; v < n; v++ {
		cv := cmap[v]
		vw[cv] = vw[cv].Add(fine.vw[v])
	}

	// Emit each undirected fine edge once (at its lower endpoint) as a
	// pair of directed halves, then route into coarse rows with
	// accumulation.
	halves := a.halves[:0]
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for k := fine.xadj[v]; k < fine.xadj[v+1]; k++ {
			to := fine.adj[k]
			if int32(v) >= to {
				continue // visit each undirected fine edge once
			}
			if cu := cmap[to]; cu != cv {
				halves = append(halves,
					halfEdge{row: cv, col: cu, w: fine.w[k]},
					halfEdge{row: cu, col: cv, w: fine.w[k]})
			}
		}
	}
	a.halves = halves
	a.routeHalves(cn, true, &lvl.g.xadj, &lvl.g.adj, &lvl.g.w)
	lvl.g.vw = vw
	lvl.g.n = cn
	lvl.g.toOrig = nil
	lvl.g.totalVWValid = false
	lvl.cmap = cmap
}

// coarsen builds the multilevel hierarchy in the arena, stopping when the
// graph is small enough or matching stops shrinking it, and returns the
// number of levels built. a.levels[0] corresponds to the contraction of g;
// the coarsest graph is a.levels[nl-1].g (or g itself when nl is 0).
//
// Each level's matching order comes from a generator derived from
// (opts.Seed, level) rather than one shared across the run, so coarsening
// draws no state reachable from other goroutines (see parallel.go).
//
//goldilocks:hotpath
func coarsen(g *csrGraph, opts Options, a *levelArena) int {
	nl := 0
	cur := g
	for cur.n > opts.CoarsenTo {
		rng := a.seeded(deriveSeed(opts.Seed, saltCoarsen, uint64(nl)))
		match := heavyEdgeMatching(cur, rng, a)
		lvl := a.level(nl) //lint:ignore allocfree per-level descriptor, one allocation per coarsening level
		contract(cur, match, a, lvl)
		// Stall detection: if matching barely shrank the graph (e.g.
		// star graphs or mostly-negative edges), further rounds waste
		// time without improving the initial partition.
		if float64(lvl.g.n) > 0.95*float64(cur.n) {
			break
		}
		nl++
		cur = &lvl.g
	}
	return nl
}

// projectSide lifts a side assignment from lvl's coarse graph back to the
// finer graph of the same level, writing into fineSide.
//
//goldilocks:hotpath
func projectSide(lvl *csrLevel, coarseSide, fineSide []int8) {
	for v, cv := range lvl.cmap {
		fineSide[v] = coarseSide[cv]
	}
}
