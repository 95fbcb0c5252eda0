package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"goldilocks/internal/cluster"
	"goldilocks/internal/journal"
	"goldilocks/internal/resources"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/workload"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 7

// metric is one reported number. Samples is how many observations it
// summarizes: timed epochs, window epochs or set-ups.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// result is one workload run.
type result struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Traced     bool     `json:"traced"`
	Set        string   `json:"set,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Errors     []string `json:"errors,omitempty"`
	// EndToEnd holds the bounded end-to-end metrics, Unbounded those that
	// are zero on most workloads or too noisy for a bound, Layers the
	// per-layer metrics of a traced run.
	EndToEnd  []metric `json:"end_to_end"`
	Unbounded []metric `json:"unbounded"`
	Layers    []metric `json:"layers,omitempty"`
}

type measureConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// workdir is where the run's scratch directory is made.
	workdir string
}

// loopOut is what a closed loop of timed epochs produced.
type loopOut struct {
	attempted int
	epochMS   []float64
	reports   []cluster.EpochReport
	offered   int
	// windowOffered is the containers offered within the quality window.
	windowOffered int
	// failed holds the epochs that errored or failed an output check.
	failed map[int]bool
	errs   []string
	// Server-epochs within the quality window: servers hosting at least
	// one container, and those whose placed demand exceeds capacity.
	hosting, overcommitted int
}

func (o *loopOut) fail(e int, err error) {
	if o.failed == nil {
		o.failed = map[int]bool{}
	}
	o.failed[e] = true
	if len(o.errs) < 10 {
		o.errs = append(o.errs, fmt.Sprintf("epoch %d: %v", e, err))
	}
}

// setUp builds the workload and runs its warm-up epoch (epoch 0).
func setUp(w workloadDef, env buildEnv) (*instance, time.Duration, error) {
	start := time.Now()
	inst, err := w.build(env)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	in := inst.input(0)
	rep, err := inst.runner.RunEpoch(in)
	if err == nil {
		_, _, err = checkEpoch(inst, in.Spec, rep)
	}
	if err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("%s: warm-up epoch: %w", w.name, err)
	}
	return inst, time.Since(start), nil
}

// drive runs timed epochs 1, 2, … back to back until stop says so. Only
// RunEpoch is timed; each epoch's output is checked after it returns. each,
// when non-nil, sees every successful epoch.
func drive(inst *instance, w workloadDef, stop func(done int, elapsed time.Duration) bool,
	each func(e int, wall time.Duration)) loopOut {
	var out loopOut
	start := time.Now()
	for e := 1; !stop(e-1, time.Since(start)); e++ {
		in := inst.input(e)
		t0 := time.Now()
		rep, err := inst.runner.RunEpoch(in)
		wall := time.Since(t0)
		out.attempted++
		if err != nil {
			// The runner's carried state is unknown after a failed epoch.
			out.fail(e, err)
			break
		}
		out.epochMS = append(out.epochMS, ms(wall))
		out.offered += len(in.Spec.Containers)
		out.reports = append(out.reports, rep)
		over, hosting, err := checkEpoch(inst, in.Spec, rep)
		if err != nil {
			out.fail(e, err)
		}
		if e <= w.window {
			out.windowOffered += len(in.Spec.Containers)
			out.overcommitted += over
			out.hosting += hosting
		}
		if each != nil {
			each(e, wall)
		}
	}
	return out
}

// checkEpoch verifies an epoch's output from outside the program, against
// the runner's carried placement: every container of the spec is placed
// exactly once or counted as shed, and none sits on a failed server. It
// also counts the servers hosting containers and those whose placed demand
// exceeds their capacity, which is reported, not failed.
func checkEpoch(inst *instance, spec *workload.Spec, rep cluster.EpochReport) (overcommitted, hosting int, err error) {
	index := make(map[int]int, len(spec.Containers))
	for i, c := range spec.Containers {
		index[c.ID] = i
	}
	loads := make([]resources.Vector, inst.topo.NumServers())
	placed := make([]bool, inst.topo.NumServers())
	snap := inst.runner.Snapshot()
	for _, a := range snap.Place {
		i, ok := index[a.Container]
		if !ok {
			return 0, 0, fmt.Errorf("container %d is placed but not in the epoch's spec", a.Container)
		}
		if a.Server < 0 || a.Server >= len(loads) {
			return 0, 0, fmt.Errorf("container %d is on server %d, outside [0, %d)", a.Container, a.Server, len(loads))
		}
		if inst.topo.ServerFailed(a.Server) {
			return 0, 0, fmt.Errorf("container %d is on failed server %d", a.Container, a.Server)
		}
		loads[a.Server] = loads[a.Server].Add(spec.Containers[i].Demand)
		placed[a.Server] = true
	}
	if got, want := len(snap.Place)+rep.AdmissionRejected, len(spec.Containers); got != want {
		return 0, 0, fmt.Errorf("%d placed + %d shed containers, want %d", len(snap.Place), rep.AdmissionRejected, want)
	}
	for s, load := range loads {
		if !placed[s] {
			continue
		}
		hosting++
		// The tolerance absorbs float summation order, not real overload.
		if !load.Fits(inst.topo.Capacity[s].Scale(1 + 1e-9)) {
			overcommitted++
		}
	}
	return overcommitted, hosting, nil
}

// measure runs one workload: repeated set-up, the untraced closed loop and,
// when traced, a second decorated and traced loop over the same epochs.
func measure(w workloadDef, cfg measureConfig) (*result, error) {
	dir, err := newScratchDir(cfg.workdir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Settle the process (heap size, caches) and the host's CPUs on a
	// throwaway set-up before anything is timed. Its epochs are its own, so
	// the measured epoch sequence does not depend on how long it ran.
	if settle := cfg.seconds / 5; settle > 0 {
		warm, _, err := setUp(w, buildEnv{seed: cfg.seed, policy: w.policy, dir: dir})
		if err != nil {
			return nil, err
		}
		drive(warm, w, func(_ int, elapsed time.Duration) bool { return elapsed >= settle }, nil)
		if err := warm.close(); err != nil {
			return nil, err
		}
	}

	var setups []float64
	var inst *instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		// Each set-up starts from a collected heap: the garbage of the one
		// before it is not its cost.
		runtime.GC()
		var d time.Duration
		inst, d, err = setUp(w, buildEnv{seed: cfg.seed, policy: w.policy, dir: dir})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer inst.close()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := drive(inst, w, func(done int, elapsed time.Duration) bool {
		return done >= w.maxEpochs || (done >= w.window && elapsed >= cfg.seconds && done%w.cycle == 0)
	}, nil)
	runtime.ReadMemStats(&after)

	res := &result{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Attempted:  out.attempted,
	}
	res.EndToEnd = endToEnd(w, out, setups)
	if cfg.traced {
		layers, tout, err := measureTraced(w, dir, cfg.seed, out)
		if err != nil {
			return nil, err
		}
		res.Layers = append(layers, runtimeLayer(before, after, len(out.epochMS))...)
		recs, bytes, err := journalStats(inst)
		if err != nil {
			return nil, err
		}
		epochs := float64(1 + len(out.epochMS)) // the warm-up epoch is journaled too
		res.Layers = append(res.Layers,
			metric{"journal.records_per_epoch", "count", recs / epochs, 1 + len(out.epochMS)},
			metric{"journal.bytes_per_epoch", "B", bytes / epochs, 1 + len(out.epochMS)},
			metric{"trace.overhead_pct", "%", 100 * (rate(out)/rate(tout) - 1), len(out.epochMS)},
		)
		// An epoch fails when its traced twin failed or reported
		// differently. reports[i] is epoch i+1: a loop stops at its first
		// failed RunEpoch.
		for i := range out.reports {
			switch {
			case tout.failed[i+1]:
				out.fail(i+1, fmt.Errorf("traced run failed"))
			case i >= len(tout.reports) || tout.reports[i] != out.reports[i]:
				out.fail(i+1, fmt.Errorf("traced report differs from the untraced one"))
			}
		}
		out.errs = append(out.errs, tout.errs...)
	}
	res.Unbounded = unbounded(w, out)
	res.Failed = len(out.failed)
	res.Errors = out.errs
	res.Correct = res.Failed == 0
	return res, nil
}

// rate is containers offered per second of RunEpoch time.
func rate(o loopOut) float64 {
	return float64(o.offered) / (sum(o.epochMS) / 1000)
}

// endToEnd computes the user-visible metrics of an untraced loop.
func endToEnd(w workloadDef, o loopOut, setups []float64) []metric {
	n := len(o.epochMS)
	win := window(w, o)
	nw := len(win)
	var active, powerW, avail, energy, requests float64
	var p99 []float64
	for _, r := range win {
		active += float64(r.ActiveServers)
		powerW += r.TotalPowerW
		avail += r.Availability
		energy += r.EnergyJ
		requests += r.Requests
		p99 = append(p99, r.TCT.P99MS)
	}
	return []metric{
		{"epoch_p50_ms", "ms", quantile(o.epochMS, 0.50), n},
		{"epoch_p90_ms", "ms", quantile(o.epochMS, 0.90), n},
		{"containers_per_s", "1/s", rate(o), n},
		{"setup_s", "s", quantile(setups, 0.5), len(setups)},
		{"peak_rss_mb", "MB", peakRSSMB(), 1},
		{"active_servers", "count", ratio(active, float64(nw)), nw},
		{"power_kw", "kW", ratio(powerW, float64(nw)) / 1000, nw},
		{"energy_per_req_j", "J", ratio(energy, requests), nw},
		// The median over epochs: a few epochs with a cut link carry
		// most of the mean's seed-to-seed variation.
		{"tct_p99_ms", "ms", quantile(p99, 0.5), nw},
		{"availability", "fraction", ratio(avail, float64(nw)), nw},
	}
}

// unbounded computes the end-to-end metrics of an untraced loop that are
// zero on most workloads (the failure shares), vary too much from seed to
// seed for a bound (migrations on the chaos and testbed workloads), or lack
// samples beyond them (the p99 of a run with fewer than 1000 epochs). They
// ride with the per-layer metrics.
func unbounded(w workloadDef, o loopOut) []metric {
	win := window(w, o)
	var shed, dropped, moved, migrations float64
	for _, r := range win {
		shed += float64(r.AdmissionRejected)
		dropped += float64(r.DroppedMigrations)
		moved += float64(r.Migrations + r.DroppedMigrations)
		migrations += float64(r.Migrations)
	}
	return []metric{
		{"epoch_p99_ms", "ms", quantile(o.epochMS, 0.99), len(o.epochMS)},
		{"migrations_per_epoch", "count", ratio(migrations, float64(len(win))), len(win)},
		{"epoch_error_share", "fraction", ratio(float64(len(o.failed)), float64(o.attempted)), o.attempted},
		{"shed_share", "fraction", ratio(shed, float64(o.windowOffered)), len(win)},
		{"dropped_migration_share", "fraction", ratio(dropped, moved), len(win)},
		{"overcommit_share", "fraction", ratio(float64(o.overcommitted), float64(o.hosting)), len(win)},
	}
}

// window returns the reports of the quality window.
func window(w workloadDef, o loopOut) []cluster.EpochReport {
	return o.reports[:min(w.window, len(o.reports))]
}

// measureTraced sets the workload up again behind the timing decorator and
// a telemetry session, runs as many epochs as the untraced loop did, and
// attributes their time to layers.
func measureTraced(w workloadDef, dir string, seed int64, untraced loopOut) ([]metric, loopOut, error) {
	dec := &timedPolicy{inner: w.policy}
	sess := &telemetry.Session{Tracer: telemetry.NewTracer(), Metrics: telemetry.NewRegistry()}
	inst, _, err := setUp(w, buildEnv{seed: seed, policy: dec, sess: sess, dir: dir})
	if err != nil {
		return nil, loopOut{}, err
	}
	defer inst.close()
	dec.busy = 0
	groups := sess.Metrics.Gauge("scheduler_partition_groups")
	cut := sess.Metrics.Gauge("scheduler_partition_cut")
	groups.Set(0)
	cut.Set(0)
	sess.Tracer = telemetry.NewTracer()

	var ledger layerLedger
	var leaves, cuts []float64
	out := drive(inst, w, func(done int, _ time.Duration) bool {
		return done >= len(untraced.reports)
	}, func(e int, wall time.Duration) {
		for _, root := range sess.Tracer.Roots() {
			if strings.HasPrefix(root.Name(), "epoch ") {
				ledger.addEpoch(root, wall, e <= w.window)
			}
		}
		if e <= w.window && groups.Value() > 0 {
			leaves = append(leaves, groups.Value())
			cuts = append(cuts, cut.Value())
		}
		groups.Set(0)
		cut.Set(0)
		// A fresh tracer per epoch keeps the traced loop's memory flat.
		sess.Tracer = telemetry.NewTracer()
	})
	return layerMetrics(&ledger, dec, leaves, cuts, window(w, untraced)), out, nil
}

// layerMetrics turns the ledger into the per-layer metrics.
func layerMetrics(l *layerLedger, dec *timedPolicy, leaves, cuts []float64, win []cluster.EpochReport) []metric {
	n, c := l.epochs, l.countEpochs
	per := func(x float64) float64 { return ratio(x, float64(n)) }
	perWin := func(x int) float64 { return ratio(float64(x), float64(c)) }
	var spill, warm, greedy, failedServers, retries, moves, migrations, dropped int
	for _, r := range win {
		if r.SpillTarget > 0.70+1e-9 {
			spill++
		}
		switch r.LadderRung {
		case cluster.RungWarmStart:
			warm++
		case cluster.RungGreedy:
			greedy++
		}
		failedServers += r.FailedServers
		retries += r.MigrationRetries
		moves += r.Migrations + r.DroppedMigrations
		migrations += r.Migrations
		dropped += r.DroppedMigrations
	}
	useful := 1.0
	if d := migrations + retries + dropped; d > 0 {
		useful = float64(migrations) / float64(d)
	}
	return []metric{
		{"partition.ms", "ms", per(l.partition), n},
		{"partition.share", "fraction", ratio(l.partition, l.epochMS), n},
		{"partition.calls_per_epoch", "count", perWin(l.partitions), c},
		{"partition.leaves", "count", mean(leaves), len(leaves)},
		{"partition.cut", "weight", mean(cuts), len(cuts)},
		{"partition.presplit_ms", "ms", per(l.presplit), n},
		{"partition.shard_max_ms", "ms", per(l.shardMax), n},
		{"partition.shard_sum_ms", "ms", per(l.shardSum), n},
		{"partition.stitch_ms", "ms", per(l.stitch), n},
		{"scheduler.place_ms", "ms", per(l.place), n},
		{"scheduler.place_outside_ms", "ms", per(ms(dec.busy)), n},
		{"scheduler.pack_ms", "ms", per(l.pack), n},
		{"scheduler.self_ms", "ms", per(l.place - l.partition - l.vc - l.pack), n},
		{"scheduler.calls_per_epoch", "count", perWin(l.policyCalls), c},
		{"scheduler.attempts_per_call", "count", ratio(float64(l.attempts), float64(l.goldilocks)), c},
		{"scheduler.spill_epochs", "count", float64(spill), len(win)},
		{"vc.ms", "ms", per(l.vc), n},
		{"vc.groups_per_epoch", "count", perWin(l.vcGroups), c},
		{"migrate.ms", "ms", per(l.migrate), n},
		{"migrate.moves_per_epoch", "count", ratio(float64(moves), float64(len(win))), len(win)},
		{"migrate.waves_per_epoch", "count", perWin(l.waves), c},
		{"migrate.retries_per_epoch", "count", ratio(float64(retries), float64(len(win))), len(win)},
		{"migrate.useful_ratio", "fraction", useful, len(win)},
		{"netsim.runs_per_epoch", "count", perWin(l.netsimRuns), c},
		{"cluster.snapshot_ms", "ms", per(l.snapshot), n},
		{"cluster.account_ms", "ms", per(l.account), n},
		{"cluster.recovery_ms", "ms", per(l.recovery), n},
		{"cluster.residue_ms", "ms", per(l.epochMS - l.attributedMS()), n},
		{"cluster.rung_warm_epochs", "count", float64(warm), len(win)},
		{"cluster.rung_greedy_epochs", "count", float64(greedy), len(win)},
		{"chaos.failed_servers", "count", ratio(float64(failedServers), float64(len(win))), len(win)},
		{"trace.coverage", "fraction", ratio(l.attributedMS(), l.epochMS), n},
	}
}

// runtimeLayer reports the Go runtime's allocation and GC work across the
// untraced loop.
func runtimeLayer(before, after runtime.MemStats, epochs int) []metric {
	per := func(x float64) float64 { return ratio(x, float64(epochs)) }
	return []metric{
		{"go.alloc_mb_per_epoch", "MB", per(float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)), epochs},
		{"go.mallocs_per_epoch", "count", per(float64(after.Mallocs - before.Mallocs)), epochs},
		{"go.gc_cycles_per_epoch", "count", per(float64(after.NumGC - before.NumGC)), epochs},
		{"go.gc_pause_ms_per_epoch", "ms", per(float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6), epochs},
	}
}

// journalStats reads the measured instance's journal back: its record
// count and size in bytes (zero for workloads without a journal).
func journalStats(inst *instance) (records, bytes float64, err error) {
	if inst.journalPath == "" {
		return 0, 0, nil
	}
	recs, _, _, err := journal.ReadFile(inst.journalPath, nil)
	if err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(inst.journalPath)
	if err != nil {
		return 0, 0, err
	}
	return float64(len(recs)), float64(fi.Size()), nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the p-quantile of xs by the method of Python's
// statistics.quantiles (the default "exclusive" one), clamped to the range
// of the data.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	h := p * float64(len(s)+1) // 1-based rank
	j := min(max(int(h), 1), len(s)-1)
	d := min(max(h-float64(j), 0), 1)
	return s[j-1] + d*(s[j]-s[j-1])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
