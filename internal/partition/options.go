// Package partition implements the multilevel recursive graph bisection
// Goldilocks uses in place of METIS (paper §III-B): heavy-edge-matching
// coarsening, greedy-graph-growing initial bisection, Fiduccia–Mattheyses
// boundary refinement, and the fit-driven recursive driver that keeps
// bipartitioning the container graph until every leaf group's aggregate
// resource demand fits a server at the Peak Energy Efficiency target.
//
// Edge weights may be negative (replica anti-affinity, §IV-C): the min-cut
// objective then *prefers* to cut those edges, separating replicas into
// different groups and hence different fault domains.
package partition

import (
	"math"
	"runtime"

	"goldilocks/internal/telemetry"
)

// Fixed tuning of the multilevel bisection. No caller varies these, so they
// are constants rather than Options fields.
const (
	// coarsenTo stops coarsening once the graph has at most this many
	// vertices.
	coarsenTo = 48
	// fmPasses bounds the number of FM refinement passes per level.
	fmPasses = 8
	// initialTries is the number of greedy-graph-growing seeds attempted
	// for the initial bisection of the coarsest graph; the best cut wins.
	initialTries = 6
	// initialTryFMPasses bounds the quick FM refinement of each initial
	// try.
	initialTryFMPasses = 2
)

// Options tunes the multilevel bisection. The zero value is not usable;
// start from DefaultOptions.
type Options struct {
	// BalanceEps is the allowed imbalance: each side of a bisection may
	// hold up to (1+BalanceEps)/2 of the total weight in every resource
	// dimension. METIS-like defaults are a few percent; the paper notes
	// the algorithm "can tolerate some imbalances". Values ≤ 0, NaN and
	// ±Inf mean the default.
	BalanceEps float64
	// Seed seeds the deterministic RNG used for seeds/tie-breaking, so
	// partitions are reproducible.
	Seed int64
	// Parallelism bounds the number of concurrent workers used for the
	// recursive fan-out of PartitionToFit (the split recursion and, when
	// sharding, the shard pre-split). Each bisection is serial and so is
	// KWay's recursion, so Bisect and KWay do not read it. The output is
	// identical at every parallelism level for a fixed Seed (every
	// subproblem derives its own RNG from structural coordinates — see
	// parallel.go). Values ≤ 0 mean runtime.GOMAXPROCS(0); 1 forces a
	// strictly serial run.
	Parallelism int
	// Trace, when non-nil, is the parent span the partitioner hangs its
	// phase spans under (one "split" span per recursive bisection). Nil
	// disables tracing at zero cost; the struct stays comparable because
	// this is a pointer.
	Trace *telemetry.Span
	// TraceDetail additionally records per-bisection internals — coarsen
	// levels, initial-bisection tries, per-level FM refinement with one
	// event per pass. Off by default: detail multiplies span volume by the
	// level count and is meant for single-placement inspection, not
	// whole-experiment traces.
	TraceDetail bool
	// ShardCount ≥ 2 enables topology-sharded partitioning (see shard.go):
	// the container graph is pre-split into ShardCount shards by cheap
	// bisections whose large levels skip serial FM refinement, the shards
	// run the full fit-driven pipeline concurrently — each with its own
	// arena, so the allocation-free contract holds per shard — and the
	// shard boundaries are stitched by a deterministic frontier re-home
	// pass. Output is bit-identical at every Parallelism for a fixed Seed,
	// like the flat pipeline, but differs from the flat pipeline's output.
	// 0 and 1 run the flat pipeline unchanged; negative values force it
	// (the scheduler's auto-enable respects an explicit -1). The scheduler
	// sets ShardCount to the topology's pod count above ShardAutoMinN
	// vertices.
	ShardCount int

	// presplitRefineCap, when > 0, makes bisectCSR skip FM refinement on
	// levels larger than the cap. Only the sharded pre-split sets it: the
	// pre-split needs a topology-shaped cut, not an optimal one — the
	// per-shard pipelines and the stitch recover the quality — and the
	// serial FM move loop on the full graph is exactly the wall sharding
	// exists to break.
	presplitRefineCap int
}

// DefaultOptions returns the tuning used by all Goldilocks experiments.
func DefaultOptions() Options {
	return Options{
		BalanceEps:  0.10,
		Seed:        1,
		Parallelism: runtime.GOMAXPROCS(0),
	}
}

func (o Options) withDefaults() Options {
	// A non-finite eps would make every balance cap NaN, silently
	// disabling FM and every greedy try, so it takes the default too.
	if !(o.BalanceEps > 0) || math.IsInf(o.BalanceEps, 1) {
		o.BalanceEps = DefaultOptions().BalanceEps
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}
