package experiments

import (
	"io"

	"goldilocks/internal/partition"
	"goldilocks/internal/resources"
	"goldilocks/internal/topology"
	"goldilocks/internal/trace"
	"goldilocks/internal/workload"
)

// Fig7Result summarizes the two partitioning showcases of Fig. 7: the 224
// Memcached containers of the testbed Twitter experiment and the
// 100-vertex snapshot of the search trace (which the paper shows splitting
// into 5 partitions).
type Fig7Result struct {
	// TwitterGroups are the leaf-group sizes of the 224-container run.
	TwitterGroups []int
	TwitterCut    float64
	// TraceGroups are the 5-way partition sizes of the trace snapshot.
	TraceGroups []int
	TraceCut    float64
	// TraceCutFraction is the cut weight over total positive edge weight
	// (a quality measure: lower is better locality).
	TraceCutFraction float64
}

// Fig7 runs both partitionings.
func Fig7(seed int64) *Fig7Result {
	res := &Fig7Result{}

	// (a) 224 Twitter containers, recursively partitioned until groups
	// fit a testbed server at the 70% knee.
	spec := workload.TwitterWorkload(224, seed)
	topo := topology.NewTestbed()
	usable := topo.AverageCapacity().PerDimScale(resources.UtilizationCaps(0.70))
	opts := partition.DefaultOptions()
	opts.Seed = seed
	tree, err := partition.PartitionToFit(spec.Graph(), usable, opts)
	if err == nil {
		for _, leaf := range tree.Leaves {
			res.TwitterGroups = append(res.TwitterGroups, leaf.Size())
		}
		res.TwitterCut = tree.Cut
	}

	// (b) 100-vertex trace snapshot into 5 partitions, as in Fig. 7(b).
	full := trace.Synthesize(trace.SearchTraceOptions{Vertices: 300, Edges: 2500, Seed: seed})
	snap := trace.Snapshot(full, 100)
	g := snap.Graph()
	part, cut := partition.KWay(g, 5, opts)
	sizes := make(map[int]int)
	for _, p := range part {
		sizes[p]++
	}
	for p := 0; p < 5; p++ {
		res.TraceGroups = append(res.TraceGroups, sizes[p])
	}
	res.TraceCut = cut
	if tot := g.TotalPositiveEdgeWeight(); tot > 0 {
		res.TraceCutFraction = cut / tot
	}
	return res
}

// Print renders both partitionings.
func (r *Fig7Result) Print(w io.Writer) {
	rows := [][]string{
		{"twitter groups", d0(float64(len(r.TwitterGroups)))},
		{"twitter cut", f1(r.TwitterCut)},
		{"trace snapshot groups", d0(float64(len(r.TraceGroups)))},
		{"trace cut fraction", f3(r.TraceCutFraction)},
	}
	table(w, []string{"statistic", "value"}, rows)
}
