package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
		{[]float64{1.5, 1.5, 1.5}, [3]float64{1.5, 1.5, 1.5}},
		{[]float64{2, 9, 4, 7, 1, 8, 3}, [3]float64{2, 4, 8}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 90, 110, 80, 120, 100, 95, 105, 60}
	skewed := []float64{60, 61, 62, 63, 64, 150, 160, 170, 180, 190}
	lower := boundSpec{Name: "epoch_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "containers_per_s", Better: "higher", Bound: 0.10}
	exact := boundSpec{Name: "active_servers", Better: "lower", Bound: 0}
	for _, c := range []struct {
		name           string
		parent, change []float64
		b              boundSpec
		want           string
	}{
		{"identical", steady, steady, lower, "pass"},
		{"within bound", steady, scaled(steady, 1.05), lower, "pass"},
		{"worse beyond bound", steady, scaled(steady, 1.3), lower, "regress"},
		{"faster everywhere", steady, scaled(steady, 0.8), lower, "better"},
		{"noisy and slightly worse", noisy, scaled(noisy, 1.02), lower, "unresolved"},
		{"noisy but every run beats the parent", noisy, scaled(noisy, 0.3), lower, "better"},
		{"every run better, within the spread", skewed, scaled(steady, 0.55), lower, "pass"},
		{"higher is better, dropped", steady, scaled(steady, 0.8), higher, "regress"},
		{"higher is better, rose", steady, scaled(steady, 1.2), higher, "better"},
		{"deterministic unchanged", []float64{6, 6}, []float64{6, 6}, exact, "pass"},
		{"deterministic worse", []float64{6, 6}, []float64{6.01, 6.01}, exact, "regress"},
	} {
		if got := judge(c.parent, c.change, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func line(failed int, metrics map[string]float64) summaryLine {
	s := summaryLine{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]summaryItem{}}
	for k, v := range metrics {
		s.Metrics[k] = summaryItem{Value: v}
	}
	return s
}

func TestCompareRunsFlagsFailures(t *testing.T) {
	spec := benchSpec{EndToEnd: []boundSpec{{Name: "epoch_p50_ms", Better: "lower", Bound: 0.1}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	ok := line(0, map[string]float64{"epoch_p50_ms": 10})
	bad := line(1, map[string]float64{"epoch_p50_ms": 10})
	if _, problems, err := compareRuns(spec, runs{"w": {ok, ok}}, runs{"w": {ok, ok}}); err != nil || len(problems) != 0 {
		t.Errorf("equal runs: problems %v, err %v", problems, err)
	}
	if _, problems, _ := compareRuns(spec, runs{"w": {ok, ok}}, runs{"w": {ok, bad}}); len(problems) != 1 {
		t.Errorf("higher failure share not flagged: %v", problems)
	}
	if _, _, err := compareRuns(spec, runs{"w": {ok}}, runs{}); err == nil {
		t.Error("missing change runs not reported")
	}
}

// TestCompareResultFiles drives the compare form end to end over results
// files: set A against itself passes, against a slower set B it fails.
func TestCompareResultFiles(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(bench, map[string]any{
		"workloads":  []map[string]string{{"name": "w", "why": "test"}},
		"end_to_end": []boundSpec{{Name: "epoch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
	}); err != nil {
		t.Fatal(err)
	}
	var f runFile
	for _, set := range []string{"A", "B"} {
		for i := 0; i < 10; i++ {
			v := 10 + 0.01*float64(i)
			if set == "B" {
				v *= 1.5
			}
			f.Runs = append(f.Runs, &result{Workload: "w", Set: set, Correct: true, Attempted: 5,
				EndToEnd: []metric{{Name: "epoch_p50_ms", Unit: "ms", Value: v}}})
		}
	}
	results := filepath.Join(dir, "runs.json")
	if err := writeJSON(results, f); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		change string
		code   int
	}{{"A", 0}, {"B", 1}} {
		var out, errb bytes.Buffer
		code := realMain([]string{"compare", "-bench", bench, "-parent", results + "#A", "-change", results + "#" + c.change}, &out, &errb)
		if code != c.code {
			t.Errorf("A vs %s: exit %d, want %d\n%s%s", c.change, code, c.code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "epoch_p50_ms") {
			t.Errorf("A vs %s: no table:\n%s", c.change, out.String())
		}
	}
}
