package partition

// Flat CSR core of the multilevel partitioner.
//
// The public API still speaks *graph.Graph, but PartitionToFit, Bisect and
// KWay convert the input once into a csrGraph — xadj/adjncy/adjwgt
// flat arrays plus a contiguous vertex-weight block — and every stage of the
// multilevel pipeline (matching, contraction, initial bisection, FM
// refinement, recursive fan-out) then runs on flat arrays owned by a pooled
// levelArena. Steady-state partitioning performs no per-level heap
// allocation: coarser levels are contracted CSR→CSR into arena buffers,
// recursive bisection extracts child subgraphs into the children's arenas,
// and all per-pass scratch (permutation buffers, match arrays, FM gain
// structures) is arena memory reused across levels, ladder tries and pool
// cycles.
//
// Bit-identity contract: the CSR pipeline produces *exactly* the partitions
// the original adjacency-list implementation produced. Three properties
// carry that guarantee (see DESIGN.md §5.1.5 and csr_roundtrip_test.go):
//
//  1. neighbor order — every CSR row preserves the Graph adjacency-list
//     order, and contraction/extraction reproduce the legacy first-seen
//     append order, so all floating-point accumulations (gains, cuts,
//     attraction) sum in the same order;
//  2. random draws — coarsening re-seeds one math/rand generator with the
//     same derived seeds and replays rand.Perm's exact draw sequence into a
//     reused buffer, so visit orders are unchanged; an initial-bisection
//     try needs only a generator's first Intn, which firstIntn computes
//     directly from the seed, so seed vertices are unchanged too;
//  3. tie-breaking — the typed gain heap replicates container/heap's
//     sift-up/sift-down comparison sequence verbatim, so equal-gain vertices
//     pop in the same order as before.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"goldilocks/internal/graph"
	"goldilocks/internal/resources"
)

// csrGraph is one graph of the multilevel hierarchy in flat CSR form. Row v
// is adj[xadj[v]:xadj[v+1]] with weights in w. toOrig maps local vertex ids
// to original container-graph ids; it is nil for coarse graphs, which never
// need original ids. Local ids are always assigned in ascending original-id
// order, so id comparisons agree between the two spaces.
type csrGraph struct {
	n      int
	xadj   []int32
	adj    []int32
	w      []float64
	vw     []resources.Vector
	toOrig []int32

	totalVW      resources.Vector
	totalVWValid bool
}

// row returns the neighbor ids and weights of vertex v.
func (g *csrGraph) row(v int32) ([]int32, []float64) {
	lo, hi := g.xadj[v], g.xadj[v+1]
	return g.adj[lo:hi], g.w[lo:hi]
}

// totalVertexWeight returns the component-wise vertex-weight sum, computed
// once per graph in ascending vertex order (the same order — and therefore
// the same float bits — as graph.Graph.TotalVertexWeight).
func (g *csrGraph) totalVertexWeight() resources.Vector {
	if !g.totalVWValid {
		var total resources.Vector
		for v := 0; v < g.n; v++ {
			total = total.Add(g.vw[v])
		}
		g.totalVW, g.totalVWValid = total, true
	}
	return g.totalVW
}

// cutWeight returns the weight crossing the bipartition, iterating rows in
// ascending order and counting each undirected edge at its lower endpoint —
// the exact summation order of graph.Graph.CutWeight.
func (g *csrGraph) cutWeight(side []int8) float64 {
	cut := 0.0
	for u := 0; u < g.n; u++ {
		for k := g.xadj[u]; k < g.xadj[u+1]; k++ {
			to := g.adj[k]
			if int32(u) < to && side[u] != side[to] {
				cut += g.w[k]
			}
		}
	}
	return cut
}

// halfEdge is one directed half of an edge being routed into a CSR row
// during contraction or subgraph extraction.
type halfEdge struct {
	row, col int32
	w        float64
}

// csrLevel is one coarsening level: the coarse graph plus the fine→coarse
// vertex map and a side buffer for the finer graph used during projection.
// All slices are arena-owned and reused across ladder tries and pool cycles.
type csrLevel struct {
	g    csrGraph
	cmap []int32 // fine vertex → coarse vertex
	side []int8  // side assignment for g's vertices
}

// fmScratch is the working memory of one fmRefine call: vertex-indexed gain
// and stamp arrays plus the heap and move log rebuilt every pass. Stamps
// need no reset between uses — every pass bumps stamps[v] before publishing
// heap entries, so entries from a previous owner can never match.
type fmScratch struct {
	gains    []float64
	stamps   []uint64
	locked   []bool
	moves    []int32
	heap     gainHeap
	deferred gainHeap
}

// grow resizes the vertex-indexed arrays to n, reallocating only when the
// pooled capacity is too small.
func (s *fmScratch) grow(n int) {
	if cap(s.gains) < n {
		s.gains = make([]float64, n)
		s.stamps = make([]uint64, n)
		s.locked = make([]bool, n)
	}
	s.gains = s.gains[:n]
	s.stamps = s.stamps[:n]
	s.locked = s.locked[:n]
}

// levelArena owns every buffer one recursive subproblem needs: the
// subproblem's own CSR storage, the coarsening hierarchy, matching and
// permutation scratch, contraction routing buffers, FM scratch, and the
// balance-ladder side buffers. Arenas are sync.Pool-backed and owned by
// exactly one goroutine at a time: a subproblem Gets an arena, builds its
// children's CSRs into freshly-Got child arenas, and Puts its own arena
// back before recursing — so steady-state partitioning allocates nothing
// and the number of live arenas tracks the active recursion frontier, not
// the tree size.
//
// Reuse discipline: every buffer is either fully overwritten for the
// current size before being read (match, cmap, side, perm, …) or carries an
// explicit cross-use invariant (fmScratch stamps; marker, which is restored
// to all −1 after every row it touches).
type levelArena struct {
	// Subproblem CSR storage (the graph this arena's subproblem partitions).
	sub      csrGraph
	subXadj  []int32
	subAdj   []int32
	subW     []float64
	subVW    []resources.Vector
	subOrig  []int32
	levels   []*csrLevel
	match    []int32
	perm     []int32
	halves   []halfEdge
	rowPos   []int32
	marker   []int32 // invariant: all entries are −1 between uses
	side     []int8
	bestSide []int8
	remap    []int32
	order    []int32
	keys     []float64
	fm       fmScratch
	rng      *rand.Rand

	// Initial-bisection try buffers (greedy graph growing).
	trySide    []int8
	inRegion   []bool
	attraction []float64
}

// arenaPools is size-classed by the arena's high-water vertex count (log2
// classes). A single mixed pool hands leaf-sized arenas to subtree-sized
// requests — the recursion's put/get order is LIFO, so a right-child
// extraction right after a leaf release draws the smallest arena in the
// pool and regrows every buffer — and that regrowth dominated steady-state
// bytes/op at Parallelism > 1. Classing by size makes a request draw an
// arena that last held a similar-sized subproblem.
const arenaClasses = 24

var arenaPools [arenaClasses]sync.Pool

func arenaClass(n int) int {
	c := bits.Len(uint(n))
	if c >= arenaClasses {
		c = arenaClasses - 1
	}
	return c
}

// getArena returns a pooled arena suited to an n-vertex subproblem: its
// own size class first, then every class up (those capacities are
// guaranteed sufficient — a class-c arena's high-water is ≥ 2^(c-1)), then
// two classes down (bounded regrowth beats building a fresh arena from
// nothing), then a fresh arena. Capacity never affects values, only
// allocation counts, so the lookup order is free to be a heuristic.
func getArena(n int) *levelArena {
	c := arenaClass(n)
	for cl := c; cl < arenaClasses; cl++ {
		if a, ok := arenaPools[cl].Get().(*levelArena); ok && a != nil {
			return a
		}
	}
	for cl := c - 1; cl >= 0 && cl >= c-2; cl-- {
		if a, ok := arenaPools[cl].Get().(*levelArena); ok && a != nil {
			return a
		}
	}
	return &levelArena{rng: rand.New(rand.NewSource(0))}
}

func putArena(a *levelArena) { arenaPools[arenaClass(cap(a.subVW))].Put(a) }

// seeded re-seeds the arena's generator, yielding the exact stream of a
// fresh rand.New(rand.NewSource(seed)) without reallocating the 607-word
// generator state. Only coarsening calls it, since each level draws a
// whole permutation; an initial-bisection try needs one draw and uses
// firstIntn instead.
//
//goldilocks:hotpath
func (a *levelArena) seeded(seed int64) *rand.Rand {
	a.rng.Seed(seed)
	return a.rng
}

// Constants of math/rand's generator (math/rand/rng.go), frozen by the Go 1
// compatibility promise. Seeding runs the Lehmer recurrence
// x_{k+1} = 48271·x_k mod (2³¹−1) from the normalized seed x_0 and sets
// state word i to x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ rngCooked[i].
// The first draw is word 333 + word 606, so it needs x_k only for
// k = 1020…1022 and 1839…1841, each x_0·48271^k mod (2³¹−1).
const (
	lehmerMod      = 1<<31 - 1
	lehmerZeroSeed = 89482311 // what Seed uses in place of a seed ≡ 0
)

var (
	// firstDrawPow[w][j] is 48271^(21+3i+j) mod (2³¹−1) for word i = 333
	// (w = 0) and i = 606 (w = 1).
	firstDrawPow = [2][3]uint64{
		{2082024995, 1341337692, 1079773482},
		{933195560, 665897288, 2140244399},
	}
	// firstDrawCooked holds rngCooked[333] and rngCooked[606].
	firstDrawCooked = [2]int64{-4633371852008891965, 4152330101494654406}
)

// firstIntn returns exactly rand.New(rand.NewSource(seed)).Intn(n) without
// building the generator's state: it computes the two state words the first
// draw reads (see firstDrawPow) in a handful of multiplications instead of
// the 1,841 recurrence steps of a full re-seed. When Int31n would reject
// the first draw and draw again (probability < n/2³¹), or n is outside
// Int31n's range, it falls back to a real re-seed, so the result is always
// the library's.
//
//goldilocks:hotpath
func (a *levelArena) firstIntn(seed int64, n int) int {
	if n > 0 && n <= lehmerMod {
		x0 := seed % lehmerMod
		if x0 < 0 {
			x0 += lehmerMod
		}
		if x0 == 0 {
			x0 = lehmerZeroSeed
		}
		var draw int64
		for w := range firstDrawPow {
			p := &firstDrawPow[w]
			x1 := int64(uint64(x0) * p[0] % lehmerMod)
			x2 := int64(uint64(x0) * p[1] % lehmerMod)
			x3 := int64(uint64(x0) * p[2] % lehmerMod)
			draw += x1<<40 ^ x2<<20 ^ x3 ^ firstDrawCooked[w]
		}
		v := int32((draw & (1<<63 - 1)) >> 32) // Int31
		n32 := int32(n)
		if n32&(n32-1) == 0 {
			return int(v & (n32 - 1))
		}
		if v <= int32(lehmerMod-(1<<31)%uint32(n32)) {
			return int(v % n32)
		}
	}
	return a.seeded(seed).Intn(n)
}

func growI32(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n, grownCap(n))
	}
	*s = (*s)[:n]
	return *s
}

func growBool(s *[]bool, n int) []bool {
	if cap(*s) < n {
		*s = make([]bool, n, grownCap(n))
	}
	*s = (*s)[:n]
	return *s
}

func growI8(s *[]int8, n int) []int8 {
	if cap(*s) < n {
		*s = make([]int8, n, grownCap(n))
	}
	*s = (*s)[:n]
	return *s
}

func growF(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n, grownCap(n))
	}
	*s = (*s)[:n]
	return *s
}

func growVecs(s *[]resources.Vector, n int) []resources.Vector {
	if cap(*s) < n {
		*s = make([]resources.Vector, n, grownCap(n))
	}
	*s = (*s)[:n]
	return *s
}

// grownCap over-allocates modestly so a shrinking-then-growing reuse
// pattern (ladder tries on slightly different coarse sizes) settles
// quickly instead of reallocating at every high-water mark.
func grownCap(n int) int { return n + n/4 }

// growMarker resizes the −1-filled marker array, preserving the all-−1
// invariant for both freshly allocated and re-sliced regions.
//
//goldilocks:hotpath
func (a *levelArena) growMarker(n int) []int32 {
	if cap(a.marker) < n {
		// Initialize the full capacity, not just the requested length:
		// a later regrow within capacity re-slices past n and must still
		// see −1 everywhere.
		m := make([]int32, grownCap(n)) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
		for i := range m {
			m[i] = -1
		}
		a.marker = m[:n]
		return a.marker
	}
	// Entries beyond the previous length were initialized to −1 at
	// allocation and restored to −1 after every use.
	a.marker = a.marker[:n]
	return a.marker
}

// buildRootCSR flattens g into the arena's subproblem storage with an
// identity toOrig map, keeping every row in g's adjacency-list order.
//
//goldilocks:hotpath
func (a *levelArena) buildRootCSR(g *graph.Graph) *csrGraph {
	n := g.NumVertices()
	half := 0
	for v := 0; v < n; v++ {
		half += g.Degree(v)
	}
	if int64(n) > math.MaxInt32 || int64(half) > math.MaxInt32 {
		panic(fmt.Sprintf("partition: CSR conversion overflows int32 ids (%d vertices, %d half-edges)", n, half)) //lint:ignore allocfree int32-overflow panic message, unreachable below 2^31 half-edges
	}
	xadj := growI32(&a.subXadj, n+1) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	adj := growI32(&a.subAdj, half)  //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	w := growF(&a.subW, half)        //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	vw := growVecs(&a.subVW, n)      //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	orig := growI32(&a.subOrig, n)   //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	pos := int32(0)
	for v := 0; v < n; v++ {
		xadj[v] = pos
		for _, e := range g.Neighbors(v) {
			adj[pos] = int32(e.To)
			w[pos] = e.Weight
			pos++
		}
		vw[v] = g.VertexWeight(v)
		orig[v] = int32(v)
	}
	xadj[n] = pos
	a.sub = csrGraph{n: n, xadj: xadj, adj: adj, w: w, vw: vw, toOrig: orig}
	return &a.sub
}

// buildRootCSRNormalized flattens g into the arena's subproblem storage
// with every adjacency row rewritten into lower-endpoint emission order:
// each undirected edge is emitted when the row scan visits its lower
// endpoint, so row i lists neighbors j<i ascending, then neighbors j>i in
// row order. This is exactly the row layout graph.Graph.Subgraph produces —
// and the layout extractChild preserves as a fixed point — so the recursive
// driver's subgraph chain reproduces the legacy Subgraph-per-level float
// orderings without ever materializing a Graph copy.
//
//goldilocks:hotpath
func (a *levelArena) buildRootCSRNormalized(g *graph.Graph) *csrGraph {
	n := g.NumVertices()
	halves := a.halves[:0]
	for v := 0; v < n; v++ {
		for _, e := range g.Neighbors(v) {
			if v < e.To {
				halves = append(halves,
					halfEdge{row: int32(v), col: int32(e.To), w: e.Weight},
					halfEdge{row: int32(e.To), col: int32(v), w: e.Weight})
			}
		}
	}
	if int64(n) > math.MaxInt32 || int64(len(halves)) > math.MaxInt32 {
		panic(fmt.Sprintf("partition: CSR conversion overflows int32 ids (%d vertices, %d half-edges)", n, len(halves))) //lint:ignore allocfree int32-overflow panic message, unreachable below 2^31 half-edges
	}
	a.halves = halves
	// Graph rows carry distinct neighbors, so routing needs no dedup.
	a.routeHalves(n, false, &a.subXadj, &a.subAdj, &a.subW)
	vw := growVecs(&a.subVW, n)    //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	orig := growI32(&a.subOrig, n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	for v := 0; v < n; v++ {
		vw[v] = g.VertexWeight(v)
		orig[v] = int32(v)
	}
	a.sub = csrGraph{n: n, xadj: a.subXadj, adj: a.subAdj, w: a.subW, vw: vw, toOrig: orig}
	return &a.sub
}

// level returns the i-th coarsening level's storage, growing the hierarchy
// on demand.
//
//goldilocks:hotpath
func (a *levelArena) level(i int) *csrLevel {
	for len(a.levels) <= i {
		a.levels = append(a.levels, new(csrLevel)) //lint:ignore allocfree per-level descriptor, one allocation per coarsening level
	}
	return a.levels[i]
}

// permInto replays math/rand.(*Rand).Perm's exact draw sequence into the
// arena's reused permutation buffer: iteration i draws rng.Intn(i+1), so
// for a given seed the visit order is byte-for-byte the one rand.Perm
// produced before the arena existed (pinned by TestHeavyEdgeMatchingOrder).
//
//goldilocks:hotpath
func (a *levelArena) permInto(rng *rand.Rand, n int) []int32 {
	p := growI32(&a.perm, n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = int32(i)
	}
	return p
}

// routeHalves scatters emitted half-edges into CSR rows of an n-vertex
// graph, preserving emission order within each row (a stable counting
// scatter). When dedup is true, repeated (row, col) halves accumulate their
// weights at the position of the first occurrence — exactly the semantics
// of graph.Graph.AddEdge's linear-scan accumulation, in the same order.
// The routed rows are appended into (*xadj, *adj, *w).
//
//goldilocks:hotpath
func (a *levelArena) routeHalves(n int, dedup bool, xadj *[]int32, adj *[]int32, w *[]float64) {
	halves := a.halves
	xa := growI32(xadj, n+1) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array

	// Pass 1: per-row counts → provisional row offsets.
	pos := growI32(&a.rowPos, n+1) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	for i := range pos {
		pos[i] = 0
	}
	for i := range halves {
		pos[halves[i].row+1]++
	}
	for v := 0; v < n; v++ {
		pos[v+1] += pos[v]
	}

	// Pass 2: stable scatter into row-grouped scratch. The scratch is the
	// final adjacency when no dedup is needed.
	ad := growI32(adj, len(halves)) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	wt := growF(w, len(halves))     //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	for i := range halves {
		h := &halves[i]
		p := pos[h.row]
		pos[h.row]++
		ad[p] = h.col
		wt[p] = h.w
	}
	// pos[v] now holds the end of row v; recover starts into xadj.
	xa[0] = 0
	copy(xa[1:], pos[:n])

	if !dedup {
		return
	}

	// Pass 3: in-place per-row dedup+accumulate, first occurrence keeping
	// its position. marker[col] is the output index of col within the
	// current row, restored to −1 before moving on.
	marker := a.growMarker(n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	out := int32(0)
	for v := 0; v < n; v++ {
		lo, hi := xa[v], xa[v+1]
		xa[v] = out
		rowStart := out
		for k := lo; k < hi; k++ {
			col := ad[k]
			if m := marker[col]; m >= 0 {
				wt[m] += wt[k]
				continue
			}
			marker[col] = out
			ad[out] = col
			wt[out] = wt[k]
			out++
		}
		for k := rowStart; k < out; k++ {
			marker[ad[k]] = -1
		}
	}
	xa[n] = out
	*adj = ad[:out]
	*w = wt[:out]
}

// extractChild builds the induced subgraph on the parent vertices whose
// side equals s, into the child arena's subproblem storage. Local ids are
// assigned in ascending parent order, edges are routed in the parent's
// row-scan order with both halves emitted when the lower endpoint is
// visited — reproducing graph.Graph.Subgraph's adjacency layout exactly.
//
// pa == ca is allowed: the child overwrites its parent in place. This is
// safe because the child is never larger than the parent, so every write
// is a forward compaction (vw[i] and orig[i] with i ≤ v), and the edge
// rows are fully staged into pa.halves before routeHalves overwrites the
// CSR storage; no grow call can reallocate mid-extraction since the
// child's sizes are bounded by the parent's existing capacities.
//
//goldilocks:hotpath
func extractChild(parent *csrGraph, side []int8, s int8, pa, ca *levelArena) *csrGraph {
	remap := growI32(&pa.remap, parent.n) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	m := 0
	for v := 0; v < parent.n; v++ {
		if side[v] == s {
			remap[v] = int32(m)
			m++
		} else {
			remap[v] = -1
		}
	}

	vw := growVecs(&ca.subVW, m)    //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	orig := growI32(&ca.subOrig, m) //lint:ignore allocfree amortized arena growth on capacity miss; the steady state reuses the backing array
	i := 0
	for v := 0; v < parent.n; v++ {
		if side[v] != s {
			continue
		}
		vw[i] = parent.vw[v]
		orig[i] = parent.toOrig[v]
		i++
	}

	halves := pa.halves[:0]
	for v := 0; v < parent.n; v++ {
		if side[v] != s {
			continue
		}
		lv := remap[v]
		for k := parent.xadj[v]; k < parent.xadj[v+1]; k++ {
			to := parent.adj[k]
			if int32(v) >= to || side[to] != s {
				continue
			}
			lt := remap[to]
			halves = append(halves,
				halfEdge{row: lv, col: lt, w: parent.w[k]},
				halfEdge{row: lt, col: lv, w: parent.w[k]})
		}
	}
	pa.halves = halves
	// Parent rows carry distinct neighbors, so extraction needs no dedup.
	pa.routeHalves(m, false, &ca.subXadj, &ca.subAdj, &ca.subW)
	ca.subVW, ca.subOrig = vw, orig
	ca.sub = csrGraph{n: m, xadj: ca.subXadj, adj: ca.subAdj, w: ca.subW, vw: vw, toOrig: orig}
	return &ca.sub
}
