// Package goldilocks is a from-scratch Go implementation of the resource
// provisioning system described in "Goldilocks: Adaptive Resource
// Provisioning in Containerized Data Centers" (Zhou, Bhuyan, Ramakrishnan,
// IEEE ICDCS 2019).
//
// Goldilocks places containers on data center servers in *groups*: the
// container communication graph is recursively bipartitioned (min-cut,
// METIS-style multilevel) until every group's resource demand fits one
// server at the Peak Energy Efficiency point (~70% utilization, where
// modern servers maximize operations per watt), and groups are assigned to
// the left-most subtrees of the network so chatty containers share
// servers, racks and pods. The result is simultaneously lower power draw
// (servers never enter the super-linear DVFS region, idle servers and
// switches power off) and shorter task completion times (headroom for
// bursts plus traffic locality).
//
// The package is a facade over the full system:
//
//   - topologies (fat-tree, leaf-spine, the paper's testbed and the five
//     Table I data centers) — see NewTestbed, NewFatTree, TableI;
//   - workloads (Table II application profiles, the Wikipedia/Azure trace
//     patterns, the synthetic Microsoft search trace) — see
//     NewTwitterWorkload, NewMixtureWorkload, SynthesizeSearchTrace;
//   - the Goldilocks policy plus the four published baselines it is
//     evaluated against (E-PVM, mPP, Borg, RC-Informed) — see Policies;
//   - an epoch-based cluster simulator with power, task-completion-time,
//     migration and energy-per-request accounting — see NewRunner;
//   - a flow-level network simulator with max-min fair sharing — see
//     the netsim example in examples/;
//   - one experiment driver per table and figure of the paper's
//     evaluation — see the Fig* and Table* functions.
//
// A minimal placement:
//
//	topo := goldilocks.NewTestbed()
//	spec := goldilocks.NewTwitterWorkload(176, 1)
//	res, err := goldilocks.NewGoldilocks().Place(goldilocks.Request{Spec: spec, Topo: topo})
package goldilocks

import (
	"io"

	"goldilocks/internal/chaos"
	"goldilocks/internal/cluster"
	"goldilocks/internal/experiments"
	"goldilocks/internal/graph"
	"goldilocks/internal/journal"
	"goldilocks/internal/migrate"
	"goldilocks/internal/monitor"
	"goldilocks/internal/netsim"
	"goldilocks/internal/partition"
	"goldilocks/internal/power"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/sim"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/trace"
	"goldilocks/internal/vc"
	"goldilocks/internal/workload"
)

// Core data types, aliased so callers never import internal packages.
type (
	// Vector is a ⟨CPU %, memory MB, network Mbps⟩ resource vector.
	Vector = resources.Vector
	// Graph is the weighted container/capacity graph.
	Graph = graph.Graph
	// Topology is a data center network: a subtree hierarchy of servers,
	// racks and pods with aggregate outbound links.
	Topology = topology.Topology
	// TopologyConfig parameterizes topology builders.
	TopologyConfig = topology.Config
	// DCSpec is one Table I data center inventory row.
	DCSpec = topology.DCSpec
	// ServerModel is a parametric server power curve with a PEE knee.
	ServerModel = power.ServerModel
	// SwitchModel is a switch power model.
	SwitchModel = power.SwitchModel
	// AppProfile is a containerized application profile (Table II).
	AppProfile = workload.AppProfile
	// Container is one schedulable unit.
	Container = workload.Container
	// Spec is a workload: containers plus the flows between them.
	Spec = workload.Spec
	// Flow is a communication relationship between two containers.
	Flow = workload.Flow
	// Policy is a container placement algorithm.
	Policy = scheduler.Policy
	// Request is the input to one placement.
	Request = scheduler.Request
	// Result is a placement: container index → server id.
	Result = scheduler.Result
	// Runner drives a policy across scheduling epochs with power/TCT
	// accounting.
	Runner = cluster.Runner
	// RunnerOptions tunes the epoch simulator.
	RunnerOptions = cluster.Options
	// EpochInput is one epoch's workload and offered load.
	EpochInput = cluster.EpochInput
	// EpochReport is one epoch's measured outcome.
	EpochReport = cluster.EpochReport
	// PartitionOptions tunes the multilevel graph partitioner: its balance
	// tolerance, seed, tracing, and worker count (Parallelism, default
	// GOMAXPROCS); the coarsening floor and the FM and initial-try counts
	// are fixed inside the partitioner. Partitioning fans the independent
	// subproblems of the recursive bisection across a bounded pool, and
	// the result for a fixed Seed is identical at every parallelism
	// level. ShardCount ≥ 2 additionally pre-splits the graph into
	// topology shards partitioned concurrently and stitched
	// deterministically; the Goldilocks policy auto-enables it at the pod
	// count for graphs of at least partition.ShardAutoMinN containers.
	PartitionOptions = partition.Options
	// PartitionTree is the fit-driven recursive partitioning result.
	PartitionTree = partition.Tree
	// Group is one leaf container group of a partition tree.
	Group = partition.Group
	// VirtualCluster is a container group placed with explicit bandwidth
	// reservations on an asymmetric topology (§IV).
	VirtualCluster = vc.Group
	// NetSimulator is the flow-level network simulator.
	NetSimulator = netsim.Simulator
	// SearchTraceOptions parameterizes the synthetic Microsoft search
	// trace generator.
	SearchTraceOptions = trace.SearchTraceOptions
)

// Table I data center inventories and named power models.
var (
	// TableI lists the five data center configurations of Table I.
	TableI = topology.TableI
	// TableII lists the four application profiles of Table II.
	TableII = workload.TableII
	// Dell2018 is the modern PEE-knee server power curve of Fig. 1(a).
	Dell2018 = power.Dell2018
	// Legacy2010 is the strictly linear pre-2010 power curve.
	Legacy2010 = power.Legacy2010
)

// NewTestbed builds the paper's 16-server leaf-spine testbed (§V).
func NewTestbed() *Topology { return topology.NewTestbed() }

// NewFatTree builds a k-ary fat-tree (k even): k³/4 servers, 5k²/4
// switches, full bisection bandwidth.
func NewFatTree(k int, edge, agg, core SwitchModel, cfg TopologyConfig) (*Topology, error) {
	return topology.NewFatTree(k, edge, agg, core, cfg)
}

// NewLeafSpine builds a leaf-spine network.
func NewLeafSpine(leaves, serversPerLeaf, spines int, uplinkMbps float64, leaf, spine SwitchModel, cfg TopologyConfig) (*Topology, error) {
	return topology.NewLeafSpine(leaves, serversPerLeaf, spines, uplinkMbps, leaf, spine, cfg)
}

// NewSimulationFatTree builds the §VI-B large-scale network: a 28-ary
// fat-tree with 5488 servers and 980 switches.
func NewSimulationFatTree() *Topology { return topology.NewSimulationFatTree() }

// DiscoverSubstructures recursively bipartitions a capacity graph (built
// with Topology.CapacityGraph) using the max-cut objective, peeling pods
// and racks apart automatically (§III-A, Fig. 4).
func DiscoverSubstructures(g *Graph, targetSize int, opts PartitionOptions) [][]int {
	return topology.DiscoverSubstructures(g, targetSize, opts)
}

// NewTwitterWorkload builds the Twitter content-caching workload of the
// testbed experiments: n containers split into front-ends and Memcached
// shards with Table II flow weights.
func NewTwitterWorkload(n int, seed int64) *Spec { return workload.TwitterWorkload(n, seed) }

// NewMixtureWorkload builds the Fig. 10 rich application mixture: Twitter
// caching plus Solr, Spark, Hadoop, Cassandra and media streaming.
func NewMixtureWorkload(n int, seed int64) *Spec { return workload.MixtureWorkload(n, seed) }

// SynthesizeSearchTrace generates the synthetic Microsoft search trace
// (Fig. 5): a container graph matching the published dimensions and
// weight distributions.
func SynthesizeSearchTrace(opts SearchTraceOptions) *Spec { return trace.Synthesize(opts) }

// DefaultSearchTrace returns the published trace dimensions (5488
// vertices, 128538 edges).
func DefaultSearchTrace() SearchTraceOptions { return trace.DefaultSearchTrace() }

// ReadWorkloadJSON parses a workload spec from its JSON interchange form
// (the format Spec.WriteJSON emits and goldilocks-place loads).
func ReadWorkloadJSON(r io.Reader) (*Spec, error) { return workload.ReadJSON(r) }

// NewGoldilocks returns the paper's policy with its default 70% Peak
// Energy Efficiency packing target.
func NewGoldilocks() Policy { return scheduler.Goldilocks{} }

// NewEPVM returns the E-PVM baseline (least-utilized placement, all
// servers on).
func NewEPVM() Policy { return scheduler.EPVM{} }

// NewMPP returns the pMapper mPP baseline (min power slope, 95% packing).
func NewMPP() Policy { return scheduler.MPP{} }

// NewBorg returns the Borg task-packing baseline (stranded-resource
// minimization, 95% packing).
func NewBorg() Policy { return scheduler.Borg{} }

// NewRCInformed returns the Resource Central bucket baseline (reserved
// resources, 125% CPU oversubscription).
func NewRCInformed() Policy { return scheduler.RCInformed{} }

// Policies returns the five compared policies in the paper's order.
func Policies() []Policy {
	return []Policy{NewEPVM(), NewMPP(), NewBorg(), NewRCInformed(), NewGoldilocks()}
}

// NewIncrementalGoldilocks returns the §IV-C migration-cost extension: it
// repairs the request's carried placement (Request.Carried, which a Runner
// fills from the previous epoch) within a migration budget (a fraction of
// the carried containers, default 0.15) instead of repartitioning from
// scratch. With nothing carried it partitions like NewGoldilocks. The
// policy holds no state, so runners may share one instance.
func NewIncrementalGoldilocks(migrationBudget float64) Policy {
	return &scheduler.IncrementalGoldilocks{MigrationBudget: migrationBudget}
}

// NewRunner builds an epoch simulator for one policy on one topology.
func NewRunner(topo *Topology, policy Policy, opts RunnerOptions) *Runner {
	return cluster.NewRunner(topo, policy, opts)
}

// DefaultRunnerOptions matches the testbed experiments.
func DefaultRunnerOptions() RunnerOptions { return cluster.DefaultOptions() }

// PartitionToFit recursively bipartitions the container graph until every
// leaf group fits usableCapacity (Eq. 1–3 of the paper). Independent
// subproblems run on up to opts.Parallelism workers; the tree is
// deterministic for a fixed opts.Seed regardless of the worker count.
func PartitionToFit(g *Graph, usableCapacity Vector, opts PartitionOptions) (*PartitionTree, error) {
	return partition.PartitionToFit(g, usableCapacity, opts)
}

// DefaultPartitionOptions returns the tuning used by the experiments.
func DefaultPartitionOptions() PartitionOptions { return partition.DefaultOptions() }

// PlaceVirtualClusters places container groups on an asymmetric or
// heterogeneous topology with Eq. 4–5 outbound-bandwidth reservations.
// The reservations are recorded in the result only: the topology is left
// unchanged, and the result holds no topology state and needs no release.
func PlaceVirtualClusters(topo *Topology, numContainers int, groups []VirtualCluster, targetUtil float64) (*vc.Placement, error) {
	return vc.Place(topo, numContainers, groups, targetUtil)
}

// NewNetSimulator builds a flow-level network simulator over the
// topology, modeling a 10G-class fabric.
func NewNetSimulator(topo *Topology) *NetSimulator { return netsim.New(topo, nil) }

// Measurement pipeline (§V): reconstruct the container graph from
// observed flows and utilization samples.
type (
	// Collector ingests flow/utilization observations and materializes
	// the measured container graph.
	Collector = monitor.Collector
	// CollectorOptions tunes smoothing and noise filtering.
	CollectorOptions = monitor.Options
)

// NewCollector builds a measurement collector for n containers.
func NewCollector(n int, opts CollectorOptions) *Collector {
	return monitor.NewCollector(n, opts)
}

// DefaultCollectorOptions matches the testbed's per-epoch polling.
func DefaultCollectorOptions() CollectorOptions { return monitor.DefaultOptions() }

// Migration machinery (§V): CRIU-style checkpoint/restore between epochs.
type (
	// MigrationMove is one container migration.
	MigrationMove = migrate.Move
	// MigrationPlan is a set of moves scheduled into conflict-free waves.
	MigrationPlan = migrate.Plan
	// MigrationReport summarizes a simulated plan execution.
	MigrationReport = migrate.Report
	// MigrationOptions sets how a migration simulation retries and traces
	// transfers; the checkpoint/transfer model itself is fixed. Transfers
	// that cannot complete are always reported in MigrationReport's
	// StuckMoves, for ReplanMigrations.
	MigrationOptions = migrate.Options
)

// PlanMigrations diffs two placements into the containers that must move.
func PlanMigrations(spec *Spec, oldPlace, newPlace []int) ([]MigrationMove, error) {
	return migrate.PlanMoves(spec, oldPlace, newPlace)
}

// ScheduleMigrations packs moves into waves where no server sources or
// sinks two transfers at once.
func ScheduleMigrations(moves []MigrationMove) *MigrationPlan { return migrate.Schedule(moves) }

// SimulateMigrations executes a plan's transfers over the topology with
// the flow-level simulator and reports freeze times and duration. The
// zero MigrationOptions is the plain run: no retries, no tracing.
func SimulateMigrations(topo *Topology, plan *MigrationPlan, opts MigrationOptions) MigrationReport {
	return migrate.Simulate(topo, plan, opts)
}

// Crash recovery (the journal subsystem): every epoch is journaled as
// intent records before it is applied and sealed by a commit record, so a
// control-plane crash at any byte boundary recovers to the last committed
// epoch and resumes with a byte-identical report stream. Arm it via
// RunnerOptions.Journal; see DESIGN.md §5.1.8.
type (
	// JournalWriter is the append-only, fsync-per-record epoch journal.
	JournalWriter = journal.Writer
	// JournalRecord is one decoded length+CRC framed journal record.
	JournalRecord = journal.Raw
	// RunnerState is the journaled control-plane snapshot (epoch,
	// placement, per-server liveness) sealed into checkpoint and commit
	// records.
	RunnerState = journal.RunnerState
	// MigrationRetryPolicy seeds the deterministic per-transfer
	// retry/timeout/exponential-backoff schedule; see
	// RunnerOptions.MigrateRetry.
	MigrationRetryPolicy = migrate.RetryPolicy
	// RecoverOutcome is the decoded journal a recovery returns: the
	// restored state, the committed reports to re-emit, orphaned
	// post-commit records, and whether a torn tail was truncated.
	RecoverOutcome = cluster.JournalView
	// ReconcileReport accounts for half-applied migration waves rolled
	// forward or back during recovery.
	ReconcileReport = cluster.ReconcileReport
)

// CreateJournal opens a fresh epoch journal at path, truncating any
// existing file. Pass a nil session to disable journal telemetry.
func CreateJournal(path string, sess *TelemetrySession) (*JournalWriter, error) {
	return journal.Create(path, sess)
}

// RecoverJournal replays a journal after a crash: it restores the last
// committed state, truncates any torn tail, and returns a writer
// positioned to continue the run. cfgHash must match the value sealed in
// the checkpoint record, so a journal from a different run configuration
// is refused — and left untouched — rather than silently replayed.
func RecoverJournal(path string, cfgHash uint64, sess *TelemetrySession) (*JournalWriter, RecoverOutcome, error) {
	return cluster.RecoverJournal(path, cfgHash, sess)
}

// WriteCheckpoint seals the run configuration hash and the initial
// control-plane state into a fresh journal; it must be the first record.
func WriteCheckpoint(w *JournalWriter, cfgHash uint64, st RunnerState) error {
	return cluster.WriteCheckpoint(w, cfgHash, st)
}

// Fault injection and failure recovery (the chaos subsystem): seeded
// fault schedules replayed deterministically onto a topology between
// epochs; the cluster runner detects the damage, fails replicas over,
// re-places displaced containers and degrades gracefully (spill above the
// PEE knee, then admission control) — all visible in EpochReport's
// failure axes (FailedServers, Availability, RecoveryTimeS, SpillTarget,
// AdmissionRejected, …).
type (
	// Fault is one injected failure event: a server crash, link cut or
	// degrade, switch failure, straggler, or correlated rack-wide fault.
	Fault = chaos.Fault
	// FaultKind enumerates the fault classes.
	FaultKind = chaos.Kind
	// FaultSchedule is a time-ordered, validated fault list.
	FaultSchedule = chaos.Schedule
	// FaultGenConfig parameterizes seeded fault-schedule generation
	// (MTTF, MTTR, burst size, fault mix).
	FaultGenConfig = chaos.GenConfig
	// ChaosInjector replays a fault schedule onto a live topology through
	// the discrete-event engine.
	ChaosInjector = chaos.Injector
	// ChaosRecord is one applied or reverted fault in the injector's log.
	ChaosRecord = chaos.Record
	// SimEngine is the single-threaded discrete-event engine that drives
	// the injector; its zero value is ready at time zero.
	SimEngine = sim.Engine
	// ChaosExperimentOptions parameterizes the MTTF/MTTR/burst sweep.
	ChaosExperimentOptions = experiments.ChaosOptions
	// ChaosExperimentResult is the sweep outcome, one row per
	// (MTTF, burst, policy) cell.
	ChaosExperimentResult = experiments.ChaosResult
)

// Fault kinds, re-exported for schedule construction.
const (
	FaultServerCrash = chaos.KindServerCrash
	FaultLinkCut     = chaos.KindLinkCut
	FaultLinkDegrade = chaos.KindLinkDegrade
	FaultSwitchFail  = chaos.KindSwitchFail
	FaultStraggler   = chaos.KindStraggler
	FaultRackFault   = chaos.KindRackFault
)

// GenerateFaults draws a seeded fault schedule against the topology:
// exponential inter-arrivals at aggregate rate servers/MTTF, exponential
// outage durations around MTTR.
func GenerateFaults(topo *Topology, cfg FaultGenConfig) (FaultSchedule, error) {
	return chaos.Generate(topo, cfg)
}

// NewChaosInjector validates the schedule and arms every fault (and its
// recovery) on the engine. Call AdvanceTo(t) before each epoch to apply
// everything due by t.
func NewChaosInjector(eng *SimEngine, topo *Topology, s FaultSchedule) (*ChaosInjector, error) {
	return chaos.NewInjector(eng, topo, s)
}

// ChaosExperiment sweeps MTTF and burst size over every policy under one
// identical fault schedule per cell, reporting availability, TCT,
// migration traffic and power under failure.
var ChaosExperiment = experiments.Chaos

// DefaultChaosExperimentOptions mirrors the testbed scale with 10-minute
// epochs.
func DefaultChaosExperimentOptions() ChaosExperimentOptions { return experiments.DefaultChaos() }

// ReplanMigrations rebuilds the stuck moves of a migration plan after
// mid-transfer failures: each stuck move is retargeted at the container's
// entry in newPlace, restarted cold when its source (and checkpoint image)
// died, or returned in dropped when newPlace rejects it — never silently
// discarded.
func ReplanMigrations(topo *Topology, plan *MigrationPlan, stuckMoves []int, newPlace []int) (*MigrationPlan, []MigrationMove, []int, error) {
	return migrate.Replan(topo, plan, stuckMoves, newPlace)
}

// Experiment drivers — one per table and figure of the evaluation. Each
// returns typed rows and can Print itself; see EXPERIMENTS.md for measured
// vs paper values.
var (
	// Fig1a sweeps the normalized power curves of Fig. 1(a).
	Fig1a = experiments.Fig1a
	// Fig1b synthesizes the SPEC fleet shares of Fig. 1(b).
	Fig1b = experiments.Fig1b
	// Fig2 produces the active-servers/total-power 'U' curve of Fig. 2.
	Fig2 = experiments.Fig2
	// Fig3 runs the five-data-center power breakdown of Fig. 3.
	Fig3 = experiments.Fig3
	// TableIIExperiment lists the Table II application profiles.
	TableIIExperiment = experiments.TableII
	// Fig5 extracts the search-trace weight distributions of Fig. 5.
	Fig5 = experiments.Fig5
	// Fig7 reproduces the partitioning showcases of Fig. 7.
	Fig7 = experiments.Fig7
	// Fig9 runs Twitter caching on the Wikipedia diurnal pattern.
	Fig9 = experiments.Fig9
	// Fig10 runs the rich mixture on the Azure churn pattern.
	Fig10 = experiments.Fig10
	// Fig11 aggregates Figs. 9–10 into the paper's summary bars.
	Fig11 = experiments.Fig11
	// Fig12 samples the Solr/Hadoop calibration curves.
	Fig12 = experiments.Fig12
	// Fig13 runs the large-scale trace-driven simulation.
	Fig13 = experiments.Fig13
	// CrashChaos runs the journaled control-plane chaos extension:
	// solve stragglers, migration flakes and scheduler crashes with
	// crash/resume byte-identity.
	CrashChaos = experiments.CrashChaos
)

// Experiment option types and their paper defaults.
type (
	// Fig3Options parameterizes the power-breakdown analysis.
	Fig3Options = experiments.Fig3Options
	// Fig9Options parameterizes the Wikipedia testbed experiment.
	Fig9Options = experiments.Fig9Options
	// Fig10Options parameterizes the Azure testbed experiment.
	Fig10Options = experiments.Fig10Options
	// Fig13Options parameterizes the large-scale simulation.
	Fig13Options = experiments.Fig13Options
	// CrashChaosOptions parameterizes the control-plane chaos
	// extension, including the journal path and crash injection point.
	CrashChaosOptions = experiments.CrashChaosOptions
	// CrashChaosResult is the journaled chaos run outcome, including
	// recovery and reconciliation accounting.
	CrashChaosResult = experiments.CrashChaosResult
)

// Observability (the telemetry subsystem): a deterministic, dependency-free
// tracing/metrics/audit layer threaded through the scheduler, partitioner,
// VC placement, cluster runner, migration planner, network simulator and
// chaos injector. Attach a session via RunnerOptions.Telemetry (or the
// experiment option structs) and export Chrome trace JSON, Prometheus text
// and per-container decision rationales after the run. All exports are
// byte-identical across same-seed runs at any parallelism.
type (
	// TelemetrySession bundles a Tracer, a metrics Registry and a decision
	// Audit log; any field may be nil to disable that sink at zero cost.
	TelemetrySession = telemetry.Session
	// TelemetrySpan is one named phase of the epoch pipeline.
	TelemetrySpan = telemetry.Span
	// TelemetryTracer records the span forest and exports it.
	TelemetryTracer = telemetry.Tracer
	// MetricsRegistry holds named counters, gauges and histograms with
	// Prometheus-text export and per-epoch snapshot diffing.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a flattened, name-sorted registry state.
	MetricsSnapshot = telemetry.Snapshot
	// DecisionAudit is the queryable placement/rejection/migration log.
	DecisionAudit = telemetry.Audit
	// AuditDecision is one structured "why" record.
	AuditDecision = telemetry.Decision
	// TraceExportOptions selects sim-time (deterministic) or wall-clock
	// timestamps for trace export.
	TraceExportOptions = telemetry.ExportOptions
)

// NewTelemetrySession returns a session with all three sinks armed.
func NewTelemetrySession() *TelemetrySession { return telemetry.NewSession() }

// DefaultFig3Options returns the §II baseline parameters.
func DefaultFig3Options() Fig3Options { return experiments.DefaultFig3() }

// DefaultFig9Options returns the paper's Fig. 9 configuration.
func DefaultFig9Options() Fig9Options { return experiments.DefaultFig9() }

// DefaultFig10Options returns the paper's Fig. 10 configuration.
func DefaultFig10Options() Fig10Options { return experiments.DefaultFig10() }

// DefaultFig13Options returns the paper-scale Fig. 13 configuration
// (28-ary fat tree: 5488 servers, 49392 containers).
func DefaultFig13Options() Fig13Options { return experiments.DefaultFig13() }

// DefaultCrashChaosOptions returns the 20-epoch seeded chaos schedule
// used by the crash-replay guard.
func DefaultCrashChaosOptions() CrashChaosOptions { return experiments.DefaultCrashChaos() }
