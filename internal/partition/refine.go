package partition

import (
	"strconv"

	"goldilocks/internal/resources"
	"goldilocks/internal/telemetry"
)

// balanceState tracks the per-side resource totals of a bisection and
// answers whether a vertex move keeps every dimension within the allowed
// imbalance. frac is the target share of total weight for side 1 (0.5 for
// an even bisection; k-way partitioning with odd k uses other targets).
type balanceState struct {
	side    [2]resources.Vector
	count   [2]int
	maxSide [2]resources.Vector // per-dimension cap per side
}

func newBalanceState(g *csrGraph, sideOf []int8, eps, frac float64) balanceState {
	var b balanceState
	total := g.totalVertexWeight()
	for v := 0; v < g.n; v++ {
		s := sideOf[v]
		b.side[s] = b.side[s].Add(g.vw[v])
		b.count[s]++
	}
	b.maxSide[1] = total.Scale(frac * (1 + eps))
	b.maxSide[0] = total.Scale((1 - frac) * (1 + eps))
	return b
}

// canMove reports whether moving a vertex of weight w from side `from` keeps
// the bisection legal: the destination side must stay under the cap in every
// dimension and the source side must not become empty.
func (b *balanceState) canMove(w resources.Vector, from int8) bool {
	if b.count[from] <= 1 {
		return false
	}
	to := 1 - from
	return b.side[to].Add(w).Fits(b.maxSide[to])
}

func (b *balanceState) apply(w resources.Vector, from int8) {
	to := 1 - from
	b.side[from] = b.side[from].Sub(w)
	b.side[to] = b.side[to].Add(w)
	b.count[from]--
	b.count[to]++
}

// isBalanced reports whether both sides currently respect the cap.
func (b *balanceState) isBalanced() bool {
	return b.side[0].Fits(b.maxSide[0]) && b.side[1].Fits(b.maxSide[1])
}

// gainItem is a lazily-invalidated max-heap entry for FM refinement.
type gainItem struct {
	v     int32
	gain  float64
	stamp uint64
}

// gainHeap is a typed max-heap of gainItems (highest gain first) that
// replicates container/heap's Init/Push/Pop sift algorithms verbatim. The
// replication matters twice over: interface boxing made heap operations the
// partitioner's dominant allocation source, and — because several entries
// often share a gain value — the *comparison sequence* of the sift
// determines which vertex pops first, so any other heap arrangement would
// silently change tie-breaking and break the bit-identity contract with the
// pre-CSR implementation.
type gainHeap []gainItem

func (h gainHeap) less(i, j int) bool { return h[i].gain > h[j].gain }

// init establishes the heap invariant, exactly as container/heap.Init.
//
//goldilocks:hotpath
func (h gainHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// push appends it and sifts up, exactly as container/heap.Push.
//
//goldilocks:hotpath
func (h *gainHeap) push(it gainItem) {
	*h = append(*h, it)
	s := *h
	// Sift-up from container/heap.up.
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the max item, exactly as container/heap.Pop: swap
// root with last, sift the new root down over the shortened prefix, detach
// the last element.
//
//goldilocks:hotpath
func (h *gainHeap) pop() gainItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	it := s[n]
	*h = s[:n]
	return it
}

// down is container/heap.down verbatim (minus the unused return value).
//
//goldilocks:hotpath
func (h gainHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// lockUnmovableMinN is the vertex count at which fmRefine switches its
// unmovable-vertex policy from park-and-re-offer to lock-for-the-pass (see
// the comment at the switch below).
const lockUnmovableMinN = 8192

// fmRefine runs Fiduccia–Mattheyses passes on the bisection in sideOf,
// mutating it in place, and returns the resulting cut weight. frac is side
// 1's target weight share. Each pass tentatively moves vertices in order of
// decreasing gain (allowing uphill moves), then rolls back to the best
// prefix. Passes repeat until no pass improves the cut or opts.FMPasses is
// exhausted. span, when non-nil, receives one event per pass with the
// resulting cut (the "FM refinement rounds" detail of the trace). scr is
// caller-owned working memory (arena or try scratch), so refinement
// allocates nothing once the scratch has grown to the graph's size.
//
//goldilocks:hotpath
func fmRefine(g *csrGraph, sideOf []int8, opts Options, frac float64, span *telemetry.Span, scr *fmScratch) float64 {
	n := g.n
	if n == 0 {
		return 0
	}
	bal := newBalanceState(g, sideOf, opts.BalanceEps, frac)
	cut := g.cutWeight(sideOf)

	scr.grow(n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	gains := scr.gains
	stamps := scr.stamps
	locked := scr.locked
	moves := scr.moves[:0]
	xadj, adjn, wts, vw := g.xadj, g.adj, g.w, g.vw

	for pass := 0; pass < opts.FMPasses; pass++ {
		h := scr.heap[:0]
		for v := 0; v < n; v++ {
			locked[v] = false
			sv := sideOf[v]
			gain := 0.0
			for k := xadj[v]; k < xadj[v+1]; k++ {
				if sideOf[adjn[k]] == sv {
					gain -= wts[k]
				} else {
					gain += wts[k]
				}
			}
			gains[v] = gain
			stamps[v]++
			h = append(h, gainItem{v: int32(v), gain: gain, stamp: stamps[v]})
		}
		h.init()

		moves = moves[:0]
		curCut := cut
		bestCut := cut
		bestPrefix := 0
		deferred := scr.deferred[:0]
		// The park-and-re-offer discipline below re-pushes every deferred
		// vertex after every applied move. That is the right call on the
		// small graphs the paper's figures use — nothing is ever locked
		// out, and the legacy bytes are pinned to it — but it is quadratic
		// when a large unmovable set coexists with a long move sequence: at
		// 10⁵ power-law vertices the re-sifting of parked entries is >95%
		// of total partitioning time. Above the structural size floor an
		// unmovable vertex is locked for the rest of the pass instead (the
		// next pass reconsiders it with fresh gains), keeping each pass at
		// O((n + m) log n). The policy switch changes move order — and
		// therefore output — only above the threshold, where no legacy
		// bytes exist; either policy is a pure function of (graph, seed),
		// so parallelism invariance is untouched.
		lockUnmovable := n >= lockUnmovableMinN

		for len(h) > 0 {
			it := h.pop()
			if it.stamp != stamps[it.v] || locked[it.v] {
				continue // stale entry
			}
			v := it.v
			if !bal.canMove(vw[v], sideOf[v]) {
				if lockUnmovable {
					locked[v] = true
					continue
				}
				// Not movable right now; it may become movable
				// after other moves rebalance the sides, so park
				// it instead of locking it.
				deferred = append(deferred, it)
				if len(h) == 0 {
					break
				}
				continue
			}
			// Apply the tentative move.
			bal.apply(vw[v], sideOf[v])
			sideOf[v] = 1 - sideOf[v]
			locked[v] = true
			curCut -= it.gain
			moves = append(moves, v)
			if curCut < bestCut-1e-12 {
				bestCut = curCut
				bestPrefix = len(moves)
			}
			// Update unlocked neighbors' gains.
			for k := xadj[v]; k < xadj[v+1]; k++ {
				u := adjn[k]
				if locked[u] {
					continue
				}
				// u's edge to v flipped side: the gain delta is
				// ±2·w depending on whether they now differ.
				if sideOf[u] == sideOf[v] {
					gains[u] -= 2 * wts[k]
				} else {
					gains[u] += 2 * wts[k]
				}
				stamps[u]++
				h.push(gainItem{v: u, gain: gains[u], stamp: stamps[u]})
			}
			// Re-offer deferred vertices now that balance changed (the
			// lock-unmovable policy has nothing parked).
			for _, d := range deferred {
				if !locked[d.v] && d.stamp == stamps[d.v] {
					h.push(d)
				}
			}
			deferred = deferred[:0]
		}

		// Roll back moves after the best prefix.
		for i := len(moves) - 1; i >= bestPrefix; i-- {
			v := moves[i]
			bal.apply(vw[v], sideOf[v])
			sideOf[v] = 1 - sideOf[v]
		}
		// Hand grown buffers back to the scratch so later passes (and the
		// next pooled user) reuse their capacity.
		scr.heap, scr.deferred = h[:0], deferred[:0]
		if span.Enabled() {
			// telemetry.Itoa serves the pass/moves labels from its
			// small-int cache, so a traced refinement round costs no
			// strconv calls for the common values.
			span.Event("fm-pass", //lint:ignore allocfree traced-only span event formatting; untraced runs never take this branch
				telemetry.Attr{Key: "pass", Val: telemetry.Itoa(pass)},
				telemetry.Attr{Key: "cut", Val: strconv.FormatFloat(bestCut, 'g', -1, 64)}, //lint:ignore allocfree traced-only span event formatting; untraced runs never take this branch
				telemetry.Attr{Key: "moves", Val: telemetry.Itoa(bestPrefix)})
		}
		if bestCut >= cut-1e-12 {
			cut = bestCut
			break // converged: no improvement this pass
		}
		cut = bestCut
	}
	scr.moves = moves
	return cut
}
