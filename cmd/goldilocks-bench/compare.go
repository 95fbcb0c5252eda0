package main

// The compare form measures a change against its parent:
//
//	goldilocks-bench compare -parent ../parent -change . [-pairs 10] [-seconds 15]
//	goldilocks-bench compare -parent base.json#A -change base.json#B
//
// A side is either a checkout, whose cmd/goldilocks-bench/bench.sh is run,
// or a results file written by the run form, optionally restricted to the
// runs labelled with one set. Checkouts run in alternating pairs: pair i
// uses seed+i on both sides, and which side goes first alternates. For
// every workload and end-to-end metric it prints each side's median and
// quartiles, the share of pairs the change won, and a verdict under the
// metric's bound from BENCHMARK.json:
//
//   - better: the change won at least nine tenths of the pairs and the
//     medians differ by more than the parent's quartile spread;
//   - regress: the change's median is worse than the parent's by more
//     than the bound;
//   - unresolved: the run-to-run spread of either side exceeds the bound,
//     unless every change run beats every parent run;
//   - pass: none of these.
//
// It exits non-zero on any regression, or when the change fails a larger
// share of its epochs than the parent.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
}

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runs maps a workload to its runs' summary lines, in run order.
type runs map[string][]summaryLine

// quartiles returns the three quartiles, as Python's
// statistics.quantiles(xs, n=4) does for three or more values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	switch {
	case q3 == q1:
		return 0
	case q2 == 0:
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// cell is one workload × metric comparison.
type cell struct {
	Workload, Metric, Unit string
	Bound                  float64
	// Parent and Change are each side's first quartile, median and third
	// quartile.
	Parent, Change [3]float64
	Pairs          int
	WinShare       float64
	Verdict        string
}

// judge compares the two sides of one metric. Runs pair up by index.
func judge(parent, change []float64, b boundSpec) cell {
	c := cell{Metric: b.Name, Unit: b.Unit, Bound: b.Bound, Pairs: min(len(parent), len(change))}
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	c.Parent = [3]float64{pq1, pm, pq3}
	c.Change = [3]float64{cq1, cm, cq3}
	lower := b.Better == "lower"
	beats := func(x, y float64) bool { return (lower && x < y) || (!lower && x > y) }
	wins := 0
	for i := 0; i < c.Pairs; i++ {
		if beats(change[i], parent[i]) {
			wins++
		}
	}
	c.WinShare = ratio(float64(wins), float64(c.Pairs))
	all := len(parent) > 0 && len(change) > 0
	for _, x := range change {
		for _, y := range parent {
			all = all && beats(x, y)
		}
	}
	limit := pm * (1 + b.Bound)
	if !lower {
		limit = pm * (1 - b.Bound)
	}
	switch {
	case c.WinShare >= 0.9 && math.Abs(cm-pm) > pq3-pq1 && beats(cm, pm):
		c.Verdict = "better"
	case all:
		c.Verdict = "pass"
	case max(spread(parent), spread(change)) > b.Bound:
		c.Verdict = "unresolved"
	case beats(limit, cm):
		c.Verdict = "regress"
	default:
		c.Verdict = "pass"
	}
	return c
}

// failShare is Σ failed / Σ attempted over a side's runs.
func failShare(rs []summaryLine) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// compareRuns judges every workload × end-to-end metric. It returns the
// cells and whether the change regressed.
func compareRuns(spec benchSpec, parent, change runs) ([]cell, []string, error) {
	var cells []cell
	var problems []string
	for _, w := range spec.Workloads {
		p, c := parent[w.Name], change[w.Name]
		if len(p) == 0 || len(c) == 0 {
			return nil, nil, fmt.Errorf("workload %s: %d parent and %d change runs", w.Name, len(p), len(c))
		}
		if pf, cf := failShare(p), failShare(c); cf > pf {
			problems = append(problems, fmt.Sprintf("%s: change fails %.4g of its epochs, parent %.4g", w.Name, cf, pf))
		}
		for _, b := range spec.EndToEnd {
			pv, err := values(p, b.Name)
			if err != nil {
				return nil, nil, fmt.Errorf("parent %s: %w", w.Name, err)
			}
			cv, err := values(c, b.Name)
			if err != nil {
				return nil, nil, fmt.Errorf("change %s: %w", w.Name, err)
			}
			cl := judge(pv, cv, b)
			cl.Workload = w.Name
			if cl.Verdict == "regress" {
				problems = append(problems, fmt.Sprintf("%s %s regressed", w.Name, b.Name))
			}
			cells = append(cells, cl)
		}
	}
	return cells, problems, nil
}

func values(rs []summaryLine, name string) ([]float64, error) {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("a run lacks metric %s", name)
		}
		out = append(out, m.Value)
	}
	return out, nil
}

// side is one half of a comparison: a checkout to run, or recorded runs.
type side struct {
	dir      string
	recorded runs
}

// openSide interprets a -parent/-change argument.
func openSide(arg string) (side, error) {
	path, set, _ := strings.Cut(arg, "#")
	fi, err := os.Stat(path)
	if err != nil {
		return side{}, err
	}
	if fi.IsDir() {
		if set != "" {
			return side{}, fmt.Errorf("%s: a set label needs a results file", arg)
		}
		return side{dir: path}, nil
	}
	var f runFile
	if err := readJSON(path, &f); err != nil {
		return side{}, err
	}
	rs := runs{}
	for _, r := range f.Runs {
		if r.Traced || (set != "" && r.Set != set) {
			continue
		}
		rs[r.Workload] = append(rs[r.Workload], summary(r))
	}
	if len(rs) == 0 {
		return side{}, fmt.Errorf("%s: no untraced runs", arg)
	}
	return side{recorded: rs}, nil
}

// runCheckout runs one workload in a checkout and parses its last line.
func runCheckout(dir, workload string, seed int64, seconds float64, stderr io.Writer) (summaryLine, error) {
	cmd := exec.Command("bash", filepath.Join("cmd", "goldilocks-bench", "bench.sh"),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return summaryLine{}, fmt.Errorf("%s in %s: %w", workload, dir, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var s summaryLine
	if err := json.Unmarshal([]byte(last), &s); err != nil {
		return summaryLine{}, fmt.Errorf("%s in %s: last line: %w", workload, dir, err)
	}
	return s, nil
}

func compareCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("goldilocks-bench compare", flag.ContinueOnError)
	parentArg := fs.String("parent", "", "parent checkout, or results file[#set]")
	changeArg := fs.String("change", "", "change checkout, or results file[#set]")
	pairs := fs.Int("pairs", 10, "alternating parent/change pairs to run per workload")
	seconds := fs.Float64("seconds", 15, "timed loop length of every run")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i uses seed+i")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentArg == "" || *changeArg == "" {
		return fmt.Errorf("compare needs -parent and -change")
	}
	var spec benchSpec
	if err := readJSON(*benchPath, &spec); err != nil {
		return err
	}
	parent, err := openSide(*parentArg)
	if err != nil {
		return err
	}
	change, err := openSide(*changeArg)
	if err != nil {
		return err
	}
	if (parent.dir == "") != (change.dir == "") {
		return fmt.Errorf("compare two checkouts or two results files, not one of each")
	}
	if parent.dir != "" {
		if *pairs < 10 {
			fmt.Fprintf(stdout, "note: %d pairs; a gain needs at least 10\n", *pairs)
		}
		parent.recorded, change.recorded = runs{}, runs{}
		for i := 0; i < *pairs; i++ {
			for _, w := range spec.Workloads {
				order := []side{parent, change}
				if i%2 == 1 {
					order = []side{change, parent}
				}
				for _, s := range order {
					r, err := runCheckout(s.dir, w.Name, *seed+int64(i), *seconds, os.Stderr)
					if err != nil {
						return err
					}
					s.recorded[w.Name] = append(s.recorded[w.Name], r)
				}
			}
		}
	}
	cells, problems, err := compareRuns(spec, parent.recorded, change.recorded)
	if err != nil {
		return err
	}
	printCells(stdout, cells)
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

func printCells(w io.Writer, cells []cell) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tbound\tverdict")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g] %s\t%.5g [%.5g, %.5g]\t%+.2f%%\t%.0f%% of %d\t%.3g\t%s\n",
			c.Workload, c.Metric, c.Parent[1], c.Parent[0], c.Parent[2], c.Unit,
			c.Change[1], c.Change[0], c.Change[2], 100*ratio(c.Change[1]-c.Parent[1], math.Abs(c.Parent[1])),
			100*c.WinShare, c.Pairs, c.Bound, c.Verdict)
	}
	tw.Flush()
}
