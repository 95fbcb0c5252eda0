package partition

// Parallel execution plumbing for the multilevel partitioner.
//
// Determinism contract: the partition produced for a fixed Options.Seed is
// bit-identical at every Options.Parallelism level. Randomness is never
// drawn from a generator shared across subproblems; instead every
// subproblem — a coarsening level, a greedy-growing initial-bisection try,
// a recursive split, a balance-ladder attempt — derives its own generator
// by hashing the run seed with the subproblem's structural coordinates
// (level, try index, recursion depth, first vertex id, vertex count).
// Structural coordinates are invariant under goroutine scheduling, so
// concurrency can reorder *work* but never random draws, and the parallel
// result equals the serial one. The experiment drivers rely on this to
// reproduce the paper's figures regardless of the host's core count.

import (
	"sync"

	"goldilocks/internal/det"
)

// Salts separating the seed-derivation domains, so e.g. coarsening level 3
// and initial-bisection try 3 never collide.
const (
	saltCoarsen uint64 = 0x9e3779b97f4a7c15
	saltInitial uint64 = 0xc2b2ae3d27d4eb4f
	saltSplit   uint64 = 0x165667b19e3779f9
	saltKWay    uint64 = 0x27d4eb2f165667c5
	saltShard   uint64 = 0x85ebca6b2c264d61
	saltStitch  uint64 = 0xff51afd7ed558ccd
)

// deriveSeed hashes a parent seed and structural coordinates into a child
// seed with a splitmix64 chain, decorrelating sibling subproblems while
// keeping every generator reproducible from Options.Seed alone.
func deriveSeed(parent int64, coords ...uint64) int64 {
	h := splitmix64(uint64(parent))
	for _, c := range coords {
		h = splitmix64(h ^ c)
	}
	return int64(h)
}

// splitmix64 is one step of the SplitMix64 generator: the golden-ratio
// increment, then the det.Mix64 finalizer.
func splitmix64(x uint64) uint64 {
	return det.Mix64(x + 0x9e3779b97f4a7c15)
}

// Limiter bounds the number of *extra* goroutines one partitioning run may
// have in flight: a run with Options.Parallelism = P holds P−1 slots, so at
// most P workers (the calling goroutine plus the spawned ones) execute
// concurrently. The nil Limiter (Parallelism ≤ 1) grants no slots and the
// run is strictly serial. Acquisition never blocks — when no slot is free
// the caller simply does the work itself — so recursive fan-out cannot
// deadlock however deep it nests.
//
// Limiter is the only sanctioned way to launch goroutines in the
// deterministic packages, and callers fork through Join: the boundedgo
// analyzer (internal/lint) flags any `go` statement whose goroutine does
// not release a Limiter slot, so every concurrent region stays within the
// Options.Parallelism budget.
type Limiter chan struct{}

// NewLimiter sizes a pool for the given parallelism level; levels ≤ 1
// return the nil (strictly serial) Limiter.
func NewLimiter(parallelism int) Limiter {
	if parallelism <= 1 {
		return nil
	}
	return make(Limiter, parallelism-1)
}

// TryAcquire reserves a worker slot without blocking; the caller must
// Release it when the spawned work finishes.
func (l Limiter) TryAcquire() bool {
	if l == nil {
		return false
	}
	select {
	case l <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by TryAcquire to the pool.
func (l Limiter) Release() { <-l }

// Join is the fork-join every recursive fan-out uses: it runs right on a
// spare worker slot when TryAcquire grants one, and otherwise runs left,
// then right, inline. left always runs on the calling goroutine. left's
// error wins over right's; serially, right does not run once left fails.
// Join is the only goroutine launch site in the deterministic packages.
func (l Limiter) Join(left, right func() error) error {
	if !l.TryAcquire() {
		if err := left(); err != nil {
			return err
		}
		return right()
	}
	var (
		rightErr error
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer l.Release()
		rightErr = right()
	}()
	err := left()
	wg.Wait()
	if err != nil {
		return err
	}
	return rightErr
}
