package partition

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"goldilocks/internal/graph"
	"goldilocks/internal/trace"
	"goldilocks/internal/workload"
)

// The placement-quality contract. Partition output is pinned byte for byte
// only across Parallelism (the determinism tests); across algorithm changes
// what must hold is quality. testdata/quality_golden.txt records (leaves,
// cut) of PartitionToFit on the paper-figure and large-graph workloads at
// seeds 1–3. Leaves are servers, and so watts. A change may move a row's
// leaves by at most max(1, 1%) and its cut by at most 2%; a change that
// moves them further must re-record the table and say why.

const qualityGoldenPath = "testdata/quality_golden.txt"

// qualityCase is one workload of the golden table. groups sizes the server
// capacity: total demand / groups, floored at twice the largest container.
// At the 0.7 PEE target that yields roughly 2·groups leaves.
type qualityCase struct {
	name   string
	groups int
	gen    func(seed int64) *graph.Graph
}

func qualityCases() []qualityCase {
	return []qualityCase{
		{"twitter-176", 16, func(s int64) *graph.Graph { return workload.TwitterWorkload(176, s).Graph() }},
		{"mixture-1000", 64, func(s int64) *graph.Graph { return workload.MixtureWorkload(1000, s).Graph() }},
		{"micro-2000", 128, func(s int64) *graph.Graph { return workload.MicroserviceWorkload(2000, s).Graph() }},
		{"search-1152", 128, func(s int64) *graph.Graph {
			// The Fig. 13 search trace at the k=8 fat tree's 1,152-container scale.
			return trace.Synthesize(trace.SearchTraceOptions{
				Vertices: 1152,
				Edges:    trace.DefaultSearchTrace().Edges * 1152 / 5488,
				Seed:     s,
			}).Graph()
		}},
		{"powerlaw-30000", 375, func(s int64) *graph.Graph { return workload.PowerLawWorkload(30000, s).Graph() }},
	}
}

type qualityRow struct {
	leaves int
	cut    float64
}

func readQualityGolden(t *testing.T) map[string]qualityRow {
	t.Helper()
	f, err := os.Open(qualityGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]qualityRow{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var seed int
		var r qualityRow
		if _, err := fmt.Sscan(line, &name, &seed, &r.leaves, &r.cut); err != nil {
			t.Fatalf("%s: %q: %v", qualityGoldenPath, line, err)
		}
		rows[fmt.Sprintf("%s %d", name, seed)] = r
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestPartitionQualityGolden(t *testing.T) {
	golden := readQualityGolden(t)
	var measured []string
	for _, c := range qualityCases() {
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s %d", c.name, seed)
			g := c.gen(seed)
			tree, err := PartitionToFit(g, shardCapacityFor(g, c.groups).Scale(0.7), DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := qualityRow{leaves: len(tree.Leaves), cut: tree.Cut}
			measured = append(measured, fmt.Sprintf("%s %d %s", key, got.leaves, strconv.FormatFloat(got.cut, 'g', -1, 64)))
			want, ok := golden[key]
			if !ok {
				t.Errorf("%s: no golden row", key)
				continue
			}
			if tol := math.Max(1, 0.01*float64(want.leaves)); math.Abs(float64(got.leaves-want.leaves)) > tol {
				t.Errorf("%s: leaves %d, golden %d (tolerance ±%.0f)", key, got.leaves, want.leaves, tol)
			}
			if math.Abs(got.cut-want.cut) > 0.02*math.Abs(want.cut) {
				t.Errorf("%s: cut %v, golden %v (%+.2f%%, tolerance ±2%%)", key, got.cut, want.cut, 100*(got.cut-want.cut)/math.Abs(want.cut))
			}
		}
	}
	if t.Failed() {
		t.Logf("measured rows (workload seed leaves cut):\n%s", strings.Join(measured, "\n"))
	}
}
