package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"goldilocks/internal/workload"
)

// TestFMStallLimit: no FM pass tries more than fmStallLimit moves past its
// best prefix. Each fmRefine call below runs one pass from the previous
// call's result, so the pass's kept prefix is exactly the set of vertices
// whose side changed, and fmScratch.moves holds every tentative move. Both
// unmovable-vertex policies are covered (n below and above
// lockUnmovableMinN).
func TestFMStallLimit(t *testing.T) {
	for _, n := range []int{2000, lockUnmovableMinN + 2000} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			c, a := testCSR(workload.PowerLawWorkload(n, 3).Graph())
			defer putArena(a)
			rng := rand.New(rand.NewSource(5))
			side := make([]int8, n)
			for v, p := range rng.Perm(n) {
				side[v] = int8(p % 2)
			}
			eps := DefaultOptions().BalanceEps
			before := make([]int8, n)
			stalled := 0
			for pass := 0; pass < 8; pass++ {
				copy(before, side)
				cut := fmRefine(c, side, eps, 0.5, 1, nil, &a.fm)
				if got := c.cutWeight(side); got != cut {
					t.Fatalf("pass %d: returned cut %v, sides give %v", pass, cut, got)
				}
				moves := a.fm.moves
				kept := 0
				for v := range side {
					if side[v] != before[v] {
						kept++
					}
				}
				for i, v := range moves {
					if flipped := side[v] != before[v]; flipped != (i < kept) {
						t.Fatalf("pass %d: move %d (vertex %d) flipped=%v, but the kept prefix is %d moves", pass, i, v, flipped, kept)
					}
				}
				if tail := len(moves) - kept; tail > fmStallLimit {
					t.Fatalf("pass %d: %d moves past the best prefix, limit %d", pass, tail, fmStallLimit)
				} else if tail == fmStallLimit {
					stalled++
				}
				if kept == 0 {
					break // converged
				}
			}
			if stalled == 0 {
				t.Fatal("no pass reached the stall limit; the test graph does not exercise it")
			}
		})
	}
}

// TestAblationRefinement shows multilevel refinement earns its cut quality:
// Bisect on the Twitter-176 graph cuts no worse than a crippled bisection
// without coarsening, with one greedy try and one FM pass over the
// uncoarsened graph.
func TestAblationRefinement(t *testing.T) {
	g := workload.TwitterWorkload(176, 1).Graph()
	opts := DefaultOptions()
	refined := Bisect(g, opts)

	c, a := testCSR(g)
	defer putArena(a)
	side := make([]int8, c.n)
	initialBisection(c, nil, opts, 0.5, 1, a, side)
	crippled := fmRefine(c, side, opts.BalanceEps, 0.5, 1, nil, &a.fm)
	if refined.Cut > crippled {
		t.Errorf("multilevel cut %.0f must not exceed crippled cut %.0f", refined.Cut, crippled)
	}
}
