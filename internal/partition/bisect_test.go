package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"goldilocks/internal/graph"
	"goldilocks/internal/resources"
)

// unitGraph builds a graph of n vertices with unit CPU weight each.
func unitGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.SetVertexWeight(v, resources.New(1, 1, 1))
	}
	return g
}

// twoCliques builds two k-cliques with heavy internal edges joined by a
// single light bridge — the canonical min-cut test: the optimal bisection
// cuts only the bridge.
func twoCliques(k int, internal, bridge float64) *graph.Graph {
	g := unitGraph(2 * k)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			g.AddEdge(a, b, internal)
			g.AddEdge(k+a, k+b, internal)
		}
	}
	g.AddEdge(0, k, bridge)
	return g
}

func TestBisectTrivial(t *testing.T) {
	for _, n := range []int{0, 1} {
		g := unitGraph(n)
		b := Bisect(g, DefaultOptions())
		if len(b.Side) != n {
			t.Errorf("n=%d: side length %d", n, len(b.Side))
		}
		if b.Cut != 0 {
			t.Errorf("n=%d: cut %v", n, b.Cut)
		}
	}
}

func TestBisectTwoVertices(t *testing.T) {
	g := unitGraph(2)
	g.AddEdge(0, 1, 5)
	b := Bisect(g, DefaultOptions())
	if b.Side[0] == b.Side[1] {
		t.Fatal("two vertices must be separated by a bisection")
	}
	if b.Cut != 5 {
		t.Fatalf("cut = %v, want 5", b.Cut)
	}
}

func TestBisectFindsCliqueCut(t *testing.T) {
	g := twoCliques(8, 10, 1)
	b := Bisect(g, DefaultOptions())
	if b.Cut != 1 {
		t.Fatalf("cut = %v, want 1 (bridge only); sides=%v", b.Cut, b.Side)
	}
	// Both cliques must be intact.
	for v := 1; v < 8; v++ {
		if b.Side[v] != b.Side[0] {
			t.Fatalf("clique A split: vertex %d", v)
		}
		if b.Side[8+v] != b.Side[8] {
			t.Fatalf("clique B split: vertex %d", 8+v)
		}
	}
	if b.Side[0] == b.Side[8] {
		t.Fatal("cliques on the same side")
	}
}

func TestBisectLargeCliquePair(t *testing.T) {
	// Large enough to exercise coarsening (>> CoarsenTo).
	g := twoCliques(60, 4, 1)
	b := Bisect(g, DefaultOptions())
	if b.Cut != 1 {
		t.Fatalf("cut = %v, want 1 after multilevel", b.Cut)
	}
}

func TestBisectBalance(t *testing.T) {
	// Random graph: the bisection must respect the balance tolerance.
	rng := rand.New(rand.NewSource(7))
	n := 200
	g := unitGraph(n)
	for i := 0; i < 600; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(5)))
	}
	opts := DefaultOptions()
	b := Bisect(g, opts)
	counts := [2]int{}
	for _, s := range b.Side {
		counts[s]++
	}
	limit := int(math.Ceil(float64(n) * (1 + opts.BalanceEps) / 2))
	if counts[0] > limit || counts[1] > limit {
		t.Fatalf("imbalanced bisection: %v (limit %d)", counts, limit)
	}
}

func TestBisectRefinementImprovesOverFallback(t *testing.T) {
	// A ring: optimal bisection cuts exactly 2 edges.
	n := 64
	g := unitGraph(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n, 1)
	}
	b := Bisect(g, DefaultOptions())
	if b.Cut < 2 {
		t.Fatalf("ring cut %v impossible (< 2)", b.Cut)
	}
	if b.Cut > 4 {
		t.Fatalf("ring cut %v, want near-optimal (≤ 4)", b.Cut)
	}
}

func TestBisectAntiAffinity(t *testing.T) {
	// Two replicas with a strongly negative edge inside an otherwise
	// uniform graph: min-cut should cut the negative edge, i.e. put the
	// replicas on different sides (§IV-C failure resilience).
	n := 16
	g := unitGraph(n)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), 1)
	}
	g.AddEdge(2, 11, -100)
	b := Bisect(g, DefaultOptions())
	if b.Side[2] == b.Side[11] {
		t.Fatal("anti-affinity edge not cut: replicas placed together")
	}
}

func TestBisectDeterministicForSeed(t *testing.T) {
	g := twoCliques(20, 3, 1)
	opts := DefaultOptions()
	a := Bisect(g, opts)
	b := Bisect(g, opts)
	for v := range a.Side {
		if a.Side[v] != b.Side[v] {
			t.Fatal("same seed must give identical partitions")
		}
	}
}

func TestBisectFractionTargets(t *testing.T) {
	n := 90
	g := unitGraph(n)
	for v := 0; v < n-1; v++ {
		g.AddEdge(v, v+1, 1)
	}
	b := BisectFraction(g, DefaultOptions(), 1.0/3.0)
	count1 := 0
	for _, s := range b.Side {
		if s == 1 {
			count1++
		}
	}
	want := n / 3
	if math.Abs(float64(count1-want)) > float64(n)/6 {
		t.Fatalf("side 1 holds %d vertices, want ≈%d", count1, want)
	}
}

func TestBisectInvalidFractionFallsBack(t *testing.T) {
	g := unitGraph(4)
	g.AddEdge(0, 1, 1)
	b := BisectFraction(g, DefaultOptions(), -3)
	counts := [2]int{}
	for _, s := range b.Side {
		counts[s]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatal("fallback 0.5 bisection should populate both sides")
	}
}

func TestPropertyBisectInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 2
		g := unitGraph(n)
		for i := 0; i < n*2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
		}
		opts := DefaultOptions()
		opts.Seed = seed
		b := Bisect(g, opts)
		// Invariant 1: every vertex assigned to side 0 or 1.
		counts := [2]int{}
		for _, s := range b.Side {
			if s != 0 && s != 1 {
				return false
			}
			counts[s]++
		}
		// Invariant 2: both sides non-empty.
		if counts[0] == 0 || counts[1] == 0 {
			return false
		}
		// Invariant 3: reported cut matches recomputation.
		if math.Abs(b.Cut-g.CutWeight(b.Side)) > 1e-9 {
			return false
		}
		// Invariant 4: cut bounded by total positive weight.
		return b.Cut <= g.TotalPositiveEdgeWeight()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// testCSR flattens g into a fresh arena for tests exercising pipeline
// internals.
func testCSR(g *graph.Graph) (*csrGraph, *levelArena) {
	a := getArena(0)
	return a.buildRootCSR(g), a
}

// csrEdgeWeight returns the weight of edge u↔v in c, or 0 when absent.
func csrEdgeWeight(c *csrGraph, u, v int32) float64 {
	adj, w := c.row(u)
	for k, to := range adj {
		if to == v {
			return w[k]
		}
	}
	return 0
}

func TestCoarsenPreservesTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 300
	g := unitGraph(n)
	for i := 0; i < 900; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(4)))
	}
	c, a := testCSR(g)
	nl := coarsen(c, DefaultOptions(), a)
	if nl == 0 {
		t.Fatal("expected at least one coarsening level for n=300")
	}
	want := g.TotalVertexWeight()
	for i := 0; i < nl; i++ {
		lvl := a.levels[i]
		if got := lvl.g.totalVertexWeight(); got != want {
			t.Fatalf("level %d total weight %v, want %v", i, got, want)
		}
		if lvl.g.n >= n {
			t.Fatalf("level %d did not shrink: %d vertices", i, lvl.g.n)
		}
	}
	coarsest := &a.levels[nl-1].g
	if coarsest.n > n/2+1 {
		t.Fatalf("coarsest graph too large: %d", coarsest.n)
	}
}

func TestHeavyEdgeMatchingSkipsNegative(t *testing.T) {
	g := unitGraph(2)
	g.AddEdge(0, 1, -5)
	c, a := testCSR(g)
	match := heavyEdgeMatching(c, rand.New(rand.NewSource(1)), a)
	if match[0] != 0 || match[1] != 1 {
		t.Fatal("vertices joined only by a negative edge must not match")
	}
}

func TestHeavyEdgeMatchingIsValidMatching(t *testing.T) {
	// Whatever the random visit order, the result must be a symmetric
	// matching that only pairs vertices across positive edges.
	rng := rand.New(rand.NewSource(42))
	n := 30
	g := unitGraph(n)
	for i := 0; i < 60; i++ {
		w := float64(1 + rng.Intn(10))
		if rng.Intn(5) == 0 {
			w = -w
		}
		g.AddEdge(rng.Intn(n), rng.Intn(n), w)
	}
	c, a := testCSR(g)
	for seed := int64(0); seed < 8; seed++ {
		match := heavyEdgeMatching(c, rand.New(rand.NewSource(seed)), a)
		for v, m := range match {
			if m < 0 || int(m) >= n {
				t.Fatalf("seed %d: match[%d] = %d out of range", seed, v, m)
			}
			if match[m] != int32(v) {
				t.Fatalf("seed %d: matching not symmetric at %d↔%d", seed, v, m)
			}
			if int(m) != v && g.EdgeWeight(v, int(m)) <= 0 {
				t.Fatalf("seed %d: matched across non-positive edge %d↔%d (w=%v)",
					seed, v, m, g.EdgeWeight(v, int(m)))
			}
		}
	}
}

// TestHeavyEdgeMatchingOrder pins the refactor's determinism contract: the
// arena-reused shuffle buffer must replay rand.Perm's exact draw sequence,
// and the resulting matching must equal the reference greedy matching
// computed over the adjacency-list graph with rng.Perm — for the same seed,
// byte for byte.
func TestHeavyEdgeMatchingOrder(t *testing.T) {
	// permInto ≡ rand.Perm for the same seed, across sizes.
	a := getArena(0)
	for seed := int64(0); seed < 10; seed++ {
		for _, n := range []int{0, 1, 2, 7, 48, 331} {
			want := rand.New(rand.NewSource(seed)).Perm(n)
			got := a.permInto(a.seeded(seed), n)
			if len(got) != len(want) {
				t.Fatalf("seed %d n=%d: length %d, want %d", seed, n, len(got), len(want))
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("seed %d n=%d: perm[%d] = %d, want %d", seed, n, i, got[i], want[i])
				}
			}
		}
	}

	// Full matching sequence vs a reference implementation that visits
	// vertices in rng.Perm order over the adjacency-list graph.
	rng := rand.New(rand.NewSource(19))
	n := 120
	g := unitGraph(n)
	for i := 0; i < 360; i++ {
		w := float64(1 + rng.Intn(9))
		if rng.Intn(6) == 0 {
			w = -w
		}
		g.AddEdge(rng.Intn(n), rng.Intn(n), w)
	}
	refMatch := func(seed int64) []int {
		match := make([]int, n)
		for i := range match {
			match[i] = -1
		}
		for _, v := range rand.New(rand.NewSource(seed)).Perm(n) {
			if match[v] >= 0 {
				continue
			}
			best, bestW := -1, 0.0
			for _, e := range g.Neighbors(v) {
				if e.Weight <= 0 || match[e.To] >= 0 {
					continue
				}
				if e.Weight > bestW {
					bestW, best = e.Weight, e.To
				}
			}
			if best >= 0 {
				match[v], match[best] = best, v
			} else {
				match[v] = v
			}
		}
		return match
	}
	c, ca := testCSR(g)
	for seed := int64(0); seed < 6; seed++ {
		want := refMatch(seed)
		got := heavyEdgeMatching(c, rand.New(rand.NewSource(seed)), ca)
		for v := range want {
			if int(got[v]) != want[v] {
				t.Fatalf("seed %d: match[%d] = %d, want %d (matching sequence diverged)",
					seed, v, got[v], want[v])
			}
		}
	}
}

func TestContractAccumulatesEdges(t *testing.T) {
	// 0-1 matched; both have edges to 2: coarse edge weight accumulates.
	g := unitGraph(3)
	g.AddEdge(0, 2, 3)
	g.AddEdge(1, 2, 4)
	g.AddEdge(0, 1, 9)
	c, a := testCSR(g)
	lvl := a.level(0)
	contract(c, []int32{1, 0, 2}, a, lvl)
	if lvl.g.n != 2 {
		t.Fatalf("coarse vertices = %d, want 2", lvl.g.n)
	}
	c01 := lvl.cmap[0]
	c2 := lvl.cmap[2]
	if lvl.cmap[1] != c01 {
		t.Fatal("matched pair not merged")
	}
	if got := csrEdgeWeight(&lvl.g, c01, c2); got != 7 {
		t.Fatalf("accumulated edge weight = %v, want 7", got)
	}
	if got := lvl.g.vw[c01]; got != resources.New(2, 2, 2) {
		t.Fatalf("merged vertex weight = %v", got)
	}
}

func BenchmarkBisect1000(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 1000
	g := unitGraph(n)
	for i := 0; i < 4000; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bisect(g, DefaultOptions())
	}
}
