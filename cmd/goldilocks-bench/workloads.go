package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"goldilocks/internal/chaos"
	"goldilocks/internal/cluster"
	"goldilocks/internal/journal"
	"goldilocks/internal/migrate"
	"goldilocks/internal/partition"
	"goldilocks/internal/power"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/sim"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/trace"
	"goldilocks/internal/workload"
)

// A workload is one closed epoch loop: a topology, a runner and the
// epoch-indexed input stream its single client feeds back to back.
type workloadDef struct {
	name string
	// window is the number of timed epochs the deterministic (quality and
	// failure) metrics cover. Every run executes at least this many, so
	// those metrics never depend on how fast the host is.
	window int
	// cycle is the period of the workload's load pattern. A run stops only
	// at a whole cycle, so every run times the same mix of loads.
	cycle int
	// maxEpochs caps a run's timed epochs and sizes the chaos horizon.
	maxEpochs int
	// policy is the configured placement policy. The chaos workload must
	// keep it the zero value: the runner's warm-start rung type-switches on
	// the policy, and a zero-value Goldilocks is what it falls back to when
	// the traced run wraps the policy in its timing decorator.
	policy scheduler.Goldilocks
	build  func(b buildEnv) (*instance, error)
}

// buildEnv is what one set-up of a workload receives.
type buildEnv struct {
	seed   int64
	policy scheduler.Policy
	sess   *telemetry.Session
	// dir holds the run's scratch files (the chaos workload's journal).
	dir string
}

// instance is one set-up workload, ready to run epochs.
type instance struct {
	topo   *topology.Topology
	runner *cluster.Runner
	// input advances any fault schedule to epoch e's boundary and returns
	// the epoch's workload. Epoch 0 is the warm-up.
	input func(e int) cluster.EpochInput
	// journalPath is the write-ahead journal, "" when the workload has none.
	journalPath string
	close       func() error
}

// scale names a set of workload sizes: "full" is the benchmark; "smoke"
// keeps every workload well under a second for the tests.
type scale string

const (
	scaleFull  scale = "full"
	scaleSmoke scale = "smoke"
)

// sizes are the knobs a scale turns. Windows are in timed epochs.
type sizes struct {
	twitter, testbedWindow                    int
	searchArity, searchReplicas, searchWindow int
	chaosArity, mixture, chaosWindow          int
	microArity, micro, microWindow            int
}

func sizesFor(sc scale) (sizes, error) {
	switch sc {
	case scaleFull:
		return sizes{
			twitter: 176, testbedWindow: 60,
			searchArity: 8, searchReplicas: 9, searchWindow: 24,
			chaosArity: 8, mixture: 1000, chaosWindow: 300,
			microArity: 8, micro: 2000, microWindow: 30,
		}, nil
	case scaleSmoke:
		return sizes{
			twitter: 64, testbedWindow: 60,
			searchArity: 4, searchReplicas: 9, searchWindow: 6,
			chaosArity: 4, mixture: 120, chaosWindow: 12,
			microArity: 4, micro: 600, microWindow: 6,
		}, nil
	}
	return sizes{}, fmt.Errorf("unknown scale %q (want full or smoke)", sc)
}

// loadCycle is the period, in epochs, of the diurnal load multiplier of
// the fat-tree search and microservice workloads.
const loadCycle = 6

// workloads returns the benchmark's workloads at a scale, in run order.
func workloads(sc scale) ([]workloadDef, error) {
	z, err := sizesFor(sc)
	if err != nil {
		return nil, err
	}
	// The microservice workload sets the shard count to the pod count, as
	// the scheduler does on its own only above partition.ShardAutoMinN
	// containers, where one epoch takes seconds.
	sharded := partition.DefaultOptions()
	sharded.Parallelism = 0 // GOMAXPROCS at each placement
	sharded.ShardCount = z.microArity
	wiki := workload.DefaultWikipedia()
	return []workloadDef{
		{
			name: "testbed-twitter-176", window: z.testbedWindow, cycle: wiki.PeriodMinutes, maxEpochs: 1 << 20,
			build: func(b buildEnv) (*instance, error) { return buildTestbed(b, z.twitter) },
		},
		{
			name: "fattree8-search-1.2k", window: z.searchWindow, cycle: loadCycle, maxEpochs: 1 << 20,
			build: func(b buildEnv) (*instance, error) { return buildSearch(b, z.searchArity, z.searchReplicas) },
		},
		{
			name: "fattree8-chaos-1k", window: z.chaosWindow, cycle: 1, maxEpochs: chaosHorizon,
			build: func(b buildEnv) (*instance, error) { return buildChaos(b, z.chaosArity, z.mixture) },
		},
		{
			name: "fattree8-micro-2k", window: z.microWindow, cycle: loadCycle, maxEpochs: 1 << 20,
			policy: scheduler.Goldilocks{Partition: sharded},
			build:  func(b buildEnv) (*instance, error) { return buildMicro(b, z.microArity, z.micro) },
		},
	}, nil
}

func findWorkload(sc scale, name string) (workloadDef, error) {
	ws, err := workloads(sc)
	if err != nil {
		return workloadDef{}, err
	}
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

func noClose() error { return nil }

// Every workload runs one fixed deployment: its container graph comes from
// a constant generator seed (those of the paper-figure experiments). The
// run's seed drives what changes while the deployment runs: per-epoch
// demand noise, the fault schedule and transfer failures. The partitioner's
// work depends so much on the graph (4× between microservice graph seeds,
// 40–160 ms per epoch) that seeded graphs would swamp every bound.
const (
	twitterGraphSeed = 9
	searchGraphSeed  = 13
	mixtureGraphSeed = 31
	microGraphSeed   = 11
)

// jittered scales every container's CPU and network demand by f times a
// factor in [0.9, 1.1] drawn per container for (seed, epoch), so that every
// epoch offers the partitioner a distinct instance.
func jittered(base *workload.Spec, seed int64, epoch int, f float64) *workload.Spec {
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(epoch)))
	factors := make([]float64, len(base.Containers))
	for i := range factors {
		factors[i] = f * (0.9 + 0.2*rng.Float64())
	}
	return base.ScaledPer(factors)
}

// diurnal maps an epoch to the Fig. 13 envelope: a 0.75–1.25 load
// multiplier over loadCycle epochs.
func diurnal(epoch int) float64 {
	return 1 + 0.25*math.Sin(2*math.Pi*float64(epoch%loadCycle)/loadCycle)
}

// buildTestbed is Fig. 9: the Twitter caching population on the 16-server
// testbed with the ×4 CPU calibration, driven by the Wikipedia diurnal RPS
// pattern (one 60-epoch cycle, repeated).
func buildTestbed(b buildEnv, n int) (*instance, error) {
	wiki := workload.DefaultWikipedia()
	base := workload.TwitterWorkload(n, twitterGraphSeed)
	for i := range base.Containers {
		base.Containers[i].Demand[resources.CPU] *= 4
		base.Containers[i].Reserved = base.Containers[i].Demand
	}
	topo := topology.NewTestbed()
	opts := cluster.DefaultOptions()
	opts.Telemetry = b.sess
	return &instance{
		topo:   topo,
		runner: cluster.NewRunner(topo, b.policy, opts),
		input: func(e int) cluster.EpochInput {
			rps := wiki.RPS(e)
			return cluster.EpochInput{Spec: jittered(base, b.seed, e, math.Max(rps/wiki.MaxRPS, 0.1)), RPS: rps}
		},
		close: noClose,
	}, nil
}

// buildSearch is the Fig. 13 set-up on a k-ary fat tree of Dell R940s: the
// synthetic search trace at one vertex per server, replicated, with CPU
// normalized so an all-on baseline would sit at 25% utilization.
func buildSearch(b buildEnv, arity, replicas int) (*instance, error) {
	capacity := resources.New(7200, 6*1024*1024, 10000)
	topo, err := topology.NewFatTree(arity, power.Altoline6940, power.Altoline6940, power.Altoline6940,
		topology.Config{ServerCapacity: capacity, ServerModel: power.DellR940, ServerLinkMbps: 10000})
	if err != nil {
		return nil, err
	}
	servers := topo.NumServers()
	base := trace.Synthesize(trace.SearchTraceOptions{
		Vertices: servers,
		Edges:    int(float64(trace.DefaultSearchTrace().Edges) * float64(servers) / 5488),
		Seed:     searchGraphSeed,
	})
	spec := &workload.Spec{}
	for r := 0; r < replicas; r++ {
		offset := len(spec.Containers)
		for _, c := range base.Containers {
			c.ID += offset
			spec.Containers = append(spec.Containers, c)
		}
		for _, f := range base.Flows {
			spec.Flows = append(spec.Flows, workload.Flow{A: f.A + offset, B: f.B + offset, Count: f.Count})
		}
	}
	totalCPU := spec.TotalDemand()[resources.CPU]
	f := 0.25 * float64(servers) * capacity[resources.CPU] / totalCPU
	for i := range spec.Containers {
		spec.Containers[i].Demand[resources.CPU] *= f
		spec.Containers[i].Reserved = spec.Containers[i].Demand.Scale(1.5)
	}

	opts := cluster.DefaultOptions()
	opts.EpochLength = 4 * time.Hour
	opts.FocusApp = workload.WebSearch.Name
	opts.PerHopLatencyMS = 0.2
	opts.Telemetry = b.sess
	return &instance{
		topo:   topo,
		runner: cluster.NewRunner(topo, b.policy, opts),
		input: func(e int) cluster.EpochInput {
			scaled := jittered(spec, b.seed, e, diurnal(e))
			// ~24% CPU per RPS on an index-serving node (Fig. 12(a)).
			return cluster.EpochInput{Spec: scaled, RPS: scaled.TotalDemand()[resources.CPU] / 24}
		},
		close: noClose,
	}, nil
}

// Chaos fault mix: aggregate failure events arrive about twice per epoch
// on 128 servers; a fifth are rack faults, a tenth fabric faults. The
// schedule covers chaosHorizon epochs, the most a run may time.
const (
	chaosMTTFEpochs  = 64
	chaosMTTREpochs  = 1.5
	chaosEpochLength = 10 * time.Minute
	chaosHorizon     = 4000
)

// buildChaos is the control-plane chaos cell at fat-tree scale: a mixture
// workload under a seeded schedule of server, rack and link faults,
// migration flakes and solve stragglers, with retrying migrations, a
// deadline-budgeted solve ladder and an fsync'd write-ahead journal.
func buildChaos(b buildEnv, arity, n int) (*instance, error) {
	topo, err := topology.NewFatTree(arity, power.TestbedHPE3800, power.TestbedHPE3800, power.TestbedHPE3800,
		topology.Config{ServerCapacity: resources.New(3200, 64*1024, 1000), ServerModel: power.TestbedOpteron, ServerLinkMbps: 1000})
	if err != nil {
		return nil, err
	}
	sched, err := chaos.Generate(topo, chaos.GenConfig{
		Seed:                   b.seed,
		Horizon:                (chaosHorizon + 1) * chaosEpochLength,
		MTTF:                   chaosMTTFEpochs * chaosEpochLength,
		MTTR:                   time.Duration(chaosMTTREpochs * float64(chaosEpochLength)),
		BurstSize:              2,
		RackFaultFraction:      0.20,
		LinkFaultFraction:      0.10,
		SolveStragglerFraction: 0.15,
		MigrationFlakeFraction: 0.15,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos schedule: %w", err)
	}
	inj, err := chaos.NewInjector(&sim.Engine{}, topo, sched)
	if err != nil {
		return nil, fmt.Errorf("chaos injector: %w", err)
	}
	spec := workload.MixtureWorkload(n, mixtureGraphSeed)

	f, err := os.CreateTemp(b.dir, "chaos-*.wal")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return nil, err
	}
	w, err := journal.Create(path, b.sess)
	if err != nil {
		return nil, err
	}
	closeJournal := func() error {
		err := w.Close()
		if rerr := os.Remove(path); err == nil {
			err = rerr
		}
		return err
	}

	opts := cluster.DefaultOptions()
	opts.EpochLength = chaosEpochLength
	opts.SolveDeadline = time.Second
	opts.MigrateRetry = migrate.RetryPolicy{MaxAttempts: 4, BaseBackoff: 250 * time.Millisecond, FlakeProb: 0.05, Seed: uint64(b.seed)}
	opts.Journal = w
	opts.Telemetry = b.sess
	runner := cluster.NewRunner(topo, b.policy, opts)
	if err := cluster.WriteCheckpoint(w, uint64(b.seed), runner.Snapshot()); err != nil {
		closeJournal()
		return nil, fmt.Errorf("journal checkpoint: %w", err)
	}
	return &instance{
		topo:   topo,
		runner: runner,
		input: func(e int) cluster.EpochInput {
			inj.AdvanceTo(time.Duration(e) * chaosEpochLength)
			return cluster.EpochInput{
				Spec:               spec,
				RPS:                1000,
				SolveCostFactor:    inj.SolveInflation(),
				MigrationFlakeProb: inj.MigrationFlakeProb(),
			}
		},
		journalPath: path,
		close:       closeJournal,
	}, nil
}

// buildMicro places the tiered microservice call graph on a k-ary fat tree
// whose servers are sized so the workload fills 45% of the fleet at nominal
// load (and every server holds at least two of the largest container), with
// TCT accounted over every flow.
func buildMicro(b buildEnv, arity, n int) (*instance, error) {
	spec := workload.MicroserviceWorkload(n, microGraphSeed)
	servers := arity * arity * arity / 4
	total := spec.TotalDemand()
	var largest resources.Vector
	for _, c := range spec.Containers {
		largest = largest.Max(c.Demand)
	}
	capacity := total.Scale(1 / (0.45 * float64(servers))).Max(largest.Scale(2))
	topo, err := topology.NewFatTree(arity, power.Altoline6940, power.Altoline6940, power.Altoline6940,
		topology.Config{ServerCapacity: capacity, ServerModel: power.DellR940, ServerLinkMbps: 10000})
	if err != nil {
		return nil, err
	}
	opts := cluster.DefaultOptions()
	opts.FocusApp = ""
	opts.Telemetry = b.sess
	return &instance{
		topo:   topo,
		runner: cluster.NewRunner(topo, b.policy, opts),
		input: func(e int) cluster.EpochInput {
			return cluster.EpochInput{Spec: jittered(spec, b.seed, e, diurnal(e)), RPS: 100 * float64(n)}
		},
		close: noClose,
	}, nil
}

// newScratchDir makes the run's scratch directory under parent.
func newScratchDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}
