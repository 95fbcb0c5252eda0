// Command goldilocks-bench is the repository's end-to-end benchmark. Each
// workload is a closed loop with one client: cluster.Runner.RunEpoch runs
// back to back, every epoch starting when the previous one has committed,
// after one warm-up epoch. Every epoch's output is checked from outside the
// program. A traced run additionally attributes epoch time to the layers
// (partition, scheduler, vc, migrate, cluster, journal, runtime) from the
// spans the program already records.
//
// Usage, from the repository root (bench.sh builds the command first):
//
//	bash cmd/goldilocks-bench/bench.sh --workload fattree8-chaos-1k --seed 1 --seconds 15 --trace 0
//	bash cmd/goldilocks-bench/bench.sh run [-traced] [-seed 1] [-seconds 15] [-runs 1] [-set A] [-o FILE]
//	bash cmd/goldilocks-bench/bench.sh compare -parent DIR|FILE -change DIR|FILE [-pairs 10]
//
// The first form runs one workload in this process and prints every metric
// with its unit and sample count, then one JSON line: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The run form runs
// every workload, each in its own child process, and writes all results to
// one JSON file. The compare form is described in compare.go.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = runAll(args[1:], stdout, stderr)
	case len(args) > 0 && args[0] == "compare":
		err = compareCmd(args[1:], stdout)
	default:
		err = runOne(args, stdout, stderr)
	}
	if errors.Is(err, flag.ErrHelp) {
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "goldilocks-bench:", err)
		return 1
	}
	return 0
}

// errIncorrect marks a run that finished but failed an output check.
var errIncorrect = errors.New("outputs failed their checks")

// runOne measures one workload in this process.
func runOne(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("goldilocks-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the per-epoch demand noise, the fault schedule and transfer failures")
	seconds := fs.Float64("seconds", 15, "how long the timed loop runs")
	traced := fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
	out := fs.String("out", "", "also write the full result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	w, err := findWorkload(scaleFull, *name)
	if err != nil {
		return err
	}
	res, err := measure(w, measureConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		workdir: ".bench_build",
	})
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return err
		}
	}
	printResult(stdout, res)
	return nil
}

// printResult prints every metric with its unit and sample count, then the
// one-line JSON summary as the last line.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s seed=%d traced=%v GOMAXPROCS=%d nproc=%d %s\n",
		r.Workload, r.Seed, r.Traced, r.GOMAXPROCS, runtime.NumCPU(), runtime.Version())
	for _, g := range []struct {
		title string
		ms    []metric
	}{{"end-to-end", r.EndToEnd}, {"end-to-end, unbounded", r.Unbounded}, {"per-layer", r.Layers}} {
		if len(g.ms) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s\n", g.title)
		for _, m := range g.ms {
			fmt.Fprintf(w, "    %-30s %14.6g %-8s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	line, _ := json.Marshal(summary(r))
	fmt.Fprintf(w, "%s\n", line)
}

// summaryLine is the last line a run prints.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary holds the bounded end-to-end metrics of an untraced run, or the
// unbounded and per-layer metrics of a traced one. A metric that is not
// finite makes the run incorrect instead of breaking the JSON.
func summary(r *result) summaryLine {
	s := summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]summaryItem{}}
	ms := r.EndToEnd
	if r.Traced {
		ms = append(append([]metric(nil), r.Unbounded...), r.Layers...)
	}
	for _, m := range ms {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			s.Correct = false
			v = 0
		}
		s.Metrics[m.Name] = summaryItem{Value: v, Unit: m.Unit}
	}
	return s
}

// hostInfo describes where a set of runs was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func thisHost() hostInfo {
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

// runFile is what the run form writes.
type runFile struct {
	Host hostInfo  `json:"host"`
	Runs []*result `json:"runs"`
}

// runAll runs every workload, each in its own child process so peak RSS and
// GC state stay per workload.
func runAll(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("goldilocks-bench run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed of every run")
	seconds := fs.Float64("seconds", 15, "how long each workload's timed loop runs")
	traced := fs.Bool("traced", false, "add the traced run and per-layer metrics")
	runs := fs.Int("runs", 1, "how many times to run every workload")
	set := fs.String("set", "", "label stored with every result (e.g. A or B)")
	out := fs.String("o", ".bench_build/goldilocks-bench.json", "where to write the results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ws, err := workloads(scaleFull)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(*out), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	file := runFile{Host: thisHost()}
	incorrect := false
	for i := 0; i < *runs; i++ {
		for _, w := range ws {
			part := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, i))
			trace := "0"
			if *traced {
				trace = "1"
			}
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(*seed),
				"--seconds", fmt.Sprint(*seconds), "--trace", trace, "--out", part)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			var r result
			if err := readJSON(part, &r); err != nil {
				return err
			}
			r.Set = *set
			incorrect = incorrect || !r.Correct
			file.Runs = append(file.Runs, &r)
		}
	}
	if err := writeJSON(*out, file); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	if incorrect {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
