package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// declared is the benchmark definition the tests hold the program to.
type declared struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	var d declared
	if err := readJSON("../../BENCHMARK.json", &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smoke runs one workload at smoke scale in this process. seconds 0 runs
// exactly the quality window, so the run is a pure function of the seed.
func smoke(t *testing.T, name string, traced bool, procs int) *result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	w, err := findWorkload(scaleSmoke, name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure(w, measureConfig{seed: 3, traced: traced, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d epochs failed: %v", name, res.Failed, res.Attempted, res.Errors)
	}
	return res
}

func byName(ms ...[]metric) map[string]metric {
	out := map[string]metric{}
	for _, g := range ms {
		for _, m := range g {
			out[m.Name] = m
		}
	}
	return out
}

func workloadNames(t *testing.T) []string {
	ws, err := workloads(scaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range ws {
		names = append(names, w.name)
	}
	return names
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	d := loadDeclared(t)
	var declaredNames []string
	for _, w := range d.Workloads {
		declaredNames = append(declaredNames, w.Name)
	}
	if got, want := strings.Join(workloadNames(t), ","), strings.Join(declaredNames, ","); got != want {
		t.Errorf("program workloads %s, BENCHMARK.json %s", got, want)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "cmd/goldilocks-bench" {
		t.Errorf("paths = %v", d.Paths)
	}
	for _, b := range append(append([]boundSpec(nil), d.EndToEnd...), d.PerLayer...) {
		if b.Better != "lower" && b.Better != "higher" {
			t.Errorf("%s: better = %q", b.Name, b.Better)
		}
		if b.Bound < 0 || b.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", b.Name, b.Bound)
		}
	}
}

// TestSmokeMetricsDeclared checks that every workload reports every
// declared metric, finite and in its declared unit, and that the last
// output line carries exactly the declared set for its mode.
func TestSmokeMetricsDeclared(t *testing.T) {
	d := loadDeclared(t)
	for _, name := range workloadNames(t) {
		res := smoke(t, name, true, runtime.GOMAXPROCS(0))
		got := byName(res.EndToEnd, res.Unbounded, res.Layers)
		for _, b := range append(append([]boundSpec(nil), d.EndToEnd...), d.PerLayer...) {
			m, ok := got[b.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", name, b.Name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", name, b.Name, m.Value)
			case m.Unit != b.Unit:
				t.Errorf("%s: %s unit %q, declared %q", name, b.Name, m.Unit, b.Unit)
			}
		}
		if len(got) != len(d.EndToEnd)+len(d.PerLayer) {
			t.Errorf("%s: reports %d metrics, BENCHMARK.json declares %d", name, len(got), len(d.EndToEnd)+len(d.PerLayer))
		}
		for traced, want := range map[bool][]boundSpec{false: d.EndToEnd, true: d.PerLayer} {
			r := *res
			r.Traced = traced
			var buf bytes.Buffer
			printResult(&buf, &r)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range last {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
				t.Errorf("last line keys %v", keys)
			}
			var s summaryLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
				t.Fatal(err)
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s traced=%v: last line has %d metrics, want %d", name, traced, len(s.Metrics), len(want))
			}
			for _, b := range want {
				if _, ok := s.Metrics[b.Name]; !ok {
					t.Errorf("%s traced=%v: last line lacks %s", name, traced, b.Name)
				}
			}
		}
	}
}

// deterministic are the metrics that are a pure function of the seed.
var deterministic = []string{
	"active_servers", "power_kw", "energy_per_req_j", "tct_p99_ms", "migrations_per_epoch", "availability",
	"epoch_error_share", "shed_share", "dropped_migration_share", "overcommit_share",
}

// TestSmokeDeterminism: quality and failure metrics are identical across
// two same-seed runs, across GOMAXPROCS 1 and 2, and between the traced
// and untraced runs.
func TestSmokeDeterminism(t *testing.T) {
	for _, name := range workloadNames(t) {
		runs := map[string]*result{
			"p1":        smoke(t, name, false, 1),
			"p2":        smoke(t, name, false, 2),
			"p2-traced": smoke(t, name, true, 2),
		}
		ref := byName(runs["p1"].EndToEnd, runs["p1"].Unbounded)
		for label, r := range runs {
			got := byName(r.EndToEnd, r.Unbounded)
			for _, m := range deterministic {
				if got[m].Value != ref[m].Value || got[m].Samples != ref[m].Samples {
					t.Errorf("%s %s: %s = %v over %d epochs, p1 run %v over %d",
						name, label, m, got[m].Value, got[m].Samples, ref[m].Value, ref[m].Samples)
				}
			}
		}
	}
}

// TestSmokeLayersWithinEpoch: the layers the spans attribute never add up
// to more than the epoch (the concurrent shard sum excepted), and every
// workload exercises the layers it was chosen for.
func TestSmokeLayersWithinEpoch(t *testing.T) {
	for _, name := range workloadNames(t) {
		m := byName(smoke(t, name, true, runtime.GOMAXPROCS(0)).Layers)
		v := func(n string) float64 { return m[n].Value }
		if v("cluster.residue_ms") < 0 || v("trace.coverage") > 1 {
			t.Errorf("%s: layers exceed the epoch: residue %v ms, coverage %v", name, v("cluster.residue_ms"), v("trace.coverage"))
		}
		if v("scheduler.self_ms") < 0 {
			t.Errorf("%s: partition+vc+pack %v ms exceed place %v ms", name,
				v("partition.ms")+v("vc.ms")+v("scheduler.pack_ms"), v("scheduler.place_ms"))
		}
		if v("scheduler.place_outside_ms") > v("scheduler.place_ms") {
			t.Errorf("%s: decorator %v ms exceeds the place span %v ms", name, v("scheduler.place_outside_ms"), v("scheduler.place_ms"))
		}
		if v("partition.shard_max_ms")+v("partition.stitch_ms") > v("partition.ms") {
			t.Errorf("%s: slowest shard + stitch exceed the partition", name)
		}
		if v("partition.ms") <= 0 || v("partition.leaves") <= 0 {
			t.Errorf("%s: no partition work recorded", name)
		}
		switch {
		case strings.Contains(name, "micro"):
			if v("partition.shard_max_ms") <= 0 || v("partition.stitch_ms") <= 0 {
				t.Errorf("%s: sharded path not taken", name)
			}
		case strings.Contains(name, "chaos"):
			for _, n := range []string{"vc.ms", "migrate.ms", "netsim.runs_per_epoch", "journal.records_per_epoch", "chaos.failed_servers"} {
				if v(n) <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, n, v(n))
				}
			}
		}
	}
}

func TestCLIRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "0"},
		{"--workload", "testbed-twitter-176", "--trace", "2"},
		{"--workload", "testbed-twitter-176", "--seconds", "1", "extra"},
		{"compare"},
	} {
		var out, errb bytes.Buffer
		if code := realMain(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}
