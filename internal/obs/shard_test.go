package obs

import (
	"bytes"
	"testing"

	"goldilocks/internal/partition"
	"goldilocks/internal/resources"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/workload"
)

func TestStageCollapsesShardNames(t *testing.T) {
	cases := map[string]string{
		"epoch 003 goldilocks": "epoch",
		"shard 000":            "shard",
		"shard 017":            "shard",
		"presplit":             "presplit",
		"stitch":               "stitch",
		"partition":            "partition",
	}
	for name, want := range cases {
		if got := Stage(name); got != want {
			t.Errorf("Stage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestShardRoot(t *testing.T) {
	if shard, ok := ShardRoot(&Span{Name: "shard 007"}); !ok || shard != 7 {
		t.Errorf("ShardRoot(shard 007) = (%d, %v), want (7, true)", shard, ok)
	}
	for _, name := range []string{"presplit", "epoch 001 borg", "stitch", "shardless"} {
		if _, ok := ShardRoot(&Span{Name: name}); ok {
			t.Errorf("ShardRoot(%q) = true, want false", name)
		}
	}
}

// shardedTraceJSON partitions the mixture workload in sharded mode under a
// live tracer and returns the exported Chrome trace.
func shardedTraceJSON(t *testing.T, p int) []byte {
	t.Helper()
	tr := telemetry.NewTracer()
	root := tr.Root("epoch 000 goldilocks", 0)
	g := workload.MixtureWorkload(2000, 7).Graph()
	total := g.TotalVertexWeight()
	var maxV resources.Vector
	for v := 0; v < g.NumVertices(); v++ {
		w := g.VertexWeight(v)
		for d := range w {
			if w[d] > maxV[d] {
				maxV[d] = w[d]
			}
		}
	}
	usable := total.Scale(1.0 / 25)
	for d := range usable {
		if usable[d] < 2*maxV[d] {
			usable[d] = 2 * maxV[d]
		}
	}
	opts := partition.DefaultOptions()
	opts.Seed = 1
	opts.Parallelism = p
	opts.ShardCount = 4
	opts.Trace = root
	if _, err := partition.PartitionToFit(g, usable, opts); err != nil {
		t.Fatal(err)
	}
	root.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, telemetry.ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCriticalPathShardRollup pins the per-shard rollup over a real sharded
// partition trace: one row per shard in ascending order, the shard and
// stitch stages present in the stage rollup, and -stage filtering keeping
// exactly the requested rows.
func TestCriticalPathShardRollup(t *testing.T) {
	parsed, err := ParseChromeTrace(shardedTraceJSON(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	rep := CriticalPath(parsed)
	if len(rep.Shards) != 4 {
		t.Fatalf("shard rows = %d, want 4", len(rep.Shards))
	}
	for i, ss := range rep.Shards {
		if ss.Shard != i {
			t.Errorf("shard row %d has index %d", i, ss.Shard)
		}
		if ss.Dur <= 0 || ss.Spans != 1 {
			t.Errorf("shard %d: dur=%d spans=%d, want positive dur and 1 span", ss.Shard, ss.Dur, ss.Spans)
		}
		if ss.Share <= 0 || ss.Share > 1 {
			t.Errorf("shard %d share %v out of (0,1]", ss.Shard, ss.Share)
		}
	}
	stages := map[string]bool{}
	for _, st := range rep.Stages {
		stages[st.Stage] = true
	}
	for _, want := range []string{"shard", "stitch", "presplit", "partition"} {
		if !stages[want] {
			t.Errorf("stage rollup missing %q (have %v)", want, stages)
		}
	}

	shardOnly := CriticalPath(parsed)
	shardOnly.FilterStage("shard")
	if len(shardOnly.Stages) != 1 || shardOnly.Stages[0].Stage != "shard" {
		t.Fatalf("FilterStage(shard) kept %+v", shardOnly.Stages)
	}
	if len(shardOnly.Shards) != 4 {
		t.Errorf("FilterStage(shard) dropped the per-shard rollup")
	}
	if len(shardOnly.Paths) != 0 || shardOnly.DominantCount != 0 {
		t.Errorf("FilterStage left paths: %d, dominant x%d", len(shardOnly.Paths), shardOnly.DominantCount)
	}

	stitchOnly := CriticalPath(parsed)
	stitchOnly.FilterStage("stitch")
	if len(stitchOnly.Stages) != 1 || stitchOnly.Stages[0].Stage != "stitch" {
		t.Fatalf("FilterStage(stitch) kept %+v", stitchOnly.Stages)
	}
	if stitchOnly.Shards != nil {
		t.Errorf("FilterStage(stitch) kept the per-shard rollup")
	}
}

// TestShardRollupByteIdenticalAcrossParallelism is the sharded analogue of
// the inspect acceptance regression: the critical-path report (text and
// JSON, filtered and not) over a same-seed sharded partition trace is
// byte-identical at Parallelism 1, 4 and 8.
func TestShardRollupByteIdenticalAcrossParallelism(t *testing.T) {
	render := func(p int) map[string]string {
		parsed, err := ParseChromeTrace(shardedTraceJSON(t, p))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		capture := func(name string, rep *CritPathReport) {
			var txt, js bytes.Buffer
			if err := rep.WriteText(&txt); err != nil {
				t.Fatal(err)
			}
			if err := rep.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			out[name+".txt"] = txt.String()
			out[name+".json"] = js.String()
		}
		capture("full", CriticalPath(parsed))
		filtered := CriticalPath(parsed)
		filtered.FilterStage("shard")
		capture("shard", filtered)
		return out
	}
	ref := render(1)
	for _, p := range []int{4, 8} {
		got := render(p)
		for name, want := range ref {
			if got[name] != want {
				t.Errorf("p=%d %s differs from p=1", p, name)
			}
		}
	}
}
