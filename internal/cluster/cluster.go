// Package cluster is the epoch-based data center simulator the testbed
// experiments run on (Figs. 9–11): each epoch a scheduling policy places
// the current workload, idle servers and switches are powered down (with
// backup paths retained), and the package accounts power, task completion
// time, migrations and energy-per-request exactly along the paper's four
// reported axes.
//
// Task completion time follows the paper's two levers: per-request service
// time plus multi-core queueing delay at the destination server (M/M/c via
// the Sakasegawa approximation — many-core servers queue negligibly below
// the saturation knee, which is exactly why the 70% PEE packing keeps its
// latency while 95% packing does not) plus congestion-inflated per-hop
// network latency over the container pair's path (locality → few hops).
package cluster

import (
	"context"
	"fmt"
	"math"
	rtrace "runtime/trace"
	"time"

	"goldilocks/internal/journal"
	"goldilocks/internal/metrics"
	"goldilocks/internal/migrate"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// Options tunes the simulator.
type Options struct {
	// EpochLength is the wall time one epoch represents.
	EpochLength time.Duration
	// PerHopLatencyMS is the network latency contributed by each link on
	// a request's path.
	PerHopLatencyMS float64
	// FocusApp, when non-empty, restricts TCT accounting to flows whose
	// endpoints both run the named application (the paper reports the
	// latency of Twitter queries specifically).
	FocusApp string
	// SLATargetMS, when positive, marks request latencies above it as
	// SLA violations (reported per epoch as the violating share of
	// request weight). The paper's motivation: packing to ~100% leaves
	// "very little headroom for spikes, and the task completion times
	// are compromised".
	SLATargetMS float64
	// Telemetry, when non-nil, records one root span per epoch (with
	// snapshot/place/account/recovery phase children and runtime/trace
	// regions aligned to them), per-epoch metrics, and the audit decisions
	// behind goldilocks-sim -explain. Nil disables observability at zero
	// cost.
	Telemetry *telemetry.Session

	// Control-plane robustness knobs (see DESIGN.md §5.1.8).

	// SolveDeadline, when positive, budgets each epoch's *modeled* solve
	// cost: if the configured policy's modeled cost exceeds it, the runner
	// walks the degradation ladder — warm-start repair, then greedy
	// first-fit — until a rung fits (greedy is the floor and always runs).
	// The cost model is deterministic (a function of workload size, never
	// wall clock), so the ladder choice replays identically after a crash.
	SolveDeadline time.Duration
	// MigrateRetry is the retry-policy template for migration transfers.
	// Its Seed is mixed with the epoch number so every epoch draws a fresh
	// but reproducible failure/jitter stream. The zero value disables
	// transfer simulation (legacy diff-only migration accounting).
	MigrateRetry migrate.RetryPolicy
	// Journal, when non-nil, write-ahead journals every epoch: intent
	// records (epoch-begin, placement, migration waves) go to disk before
	// their effects are applied, and a commit record seals the epoch with
	// the post-epoch runner state. See RecoverJournal for the resume side.
	Journal *journal.Writer
}

const (
	// maxQueueUtil clamps the M/M/c per-server utilization to keep the
	// queueing term finite; utilizations at or above it saturate to the
	// clamp.
	maxQueueUtil = 0.98
	// maxLinkUtil clamps per-link utilization in the congestion term.
	maxLinkUtil = 0.90
	// backupSwitches is the number of extra aggregation/core switches
	// kept powered per group as backup paths (§II: "a few extra backup
	// paths are reserved for bursty traffic").
	backupSwitches = 1
)

// DefaultOptions matches the testbed experiments.
func DefaultOptions() Options {
	return Options{
		EpochLength:     time.Minute,
		PerHopLatencyMS: 0.8,
		FocusApp:        workload.TwitterCaching.Name,
	}
}

// EpochInput is one epoch's workload.
type EpochInput struct {
	Spec *workload.Spec
	// RPS is the aggregate *offered* request rate. The served rate is
	// closed-loop: each query connection issues requests back-to-back,
	// so a connection's throughput is capped at 1/TCT — long completion
	// times directly shrink served requests and inflate energy per
	// request (the Fig. 9(d)/11(c) effect).
	RPS float64
	// Burst scales the *actual* CPU/network load relative to the demand
	// the scheduler placed against (default 1.0). A mid-epoch spike
	// (Burst > 1) is exactly the scenario PEE headroom protects against:
	// 95%-packed servers saturate while 70%-packed servers absorb it.
	Burst float64
	// SolveCostFactor multiplies this epoch's modeled solve cost (≤ 0
	// means 1). The chaos injector's solve-straggler fault feeds it: a
	// slow control plane pushes the epoch down the degradation ladder.
	SolveCostFactor float64
	// MigrationFlakeProb, when positive, overrides the retry policy's
	// per-attempt transfer failure probability for this epoch — the chaos
	// migration-flake window.
	MigrationFlakeProb float64
}

// EpochReport is the simulator's output for one epoch: the four axes of
// Figs. 9/10 plus migration accounting.
type EpochReport struct {
	Epoch             int
	Time              time.Duration
	Policy            string
	ActiveServers     int
	ServerPowerW      float64
	NetworkPowerW     float64
	TotalPowerW       float64
	TCT               metrics.TCTStats
	MeanTCTMS         float64
	Requests          float64
	EnergyJ           float64
	EnergyPerRequestJ float64
	Migrations        int
	MigrationMB       float64
	// MeanServerUtil is the mean CPU utilization across active servers.
	MeanServerUtil float64
	// SLAViolations is the share of request weight whose latency
	// exceeded Options.SLATargetMS (0 when no target is set).
	SLAViolations float64

	// Failure-and-recovery axes (meaningful when the topology carries
	// chaos-injected faults; see recovery.go).

	// FailedServers is the number of servers down at placement time.
	FailedServers int
	// DisplacedContainers counts carried containers whose previous-epoch
	// server is now failed — the workload the recovery loop must re-place.
	DisplacedContainers int
	// DisplacedDemand aggregates the displaced containers' demand.
	DisplacedDemand resources.Vector
	// GroupsDown counts service units (replica groups, or single
	// non-replicated containers) that entered the epoch with zero carried
	// members on surviving servers. With rack-level anti-affinity a
	// rack fault should leave this at the non-replicated casualties only.
	GroupsDown int
	// RecoveryMigrations counts displaced containers successfully
	// re-placed this epoch (a subset of Migrations).
	RecoveryMigrations int
	// RecoveryTimeS estimates how long restoring the displaced containers
	// took: per-destination serialized image pulls over the surviving
	// NICs, destinations in parallel.
	RecoveryTimeS float64
	// Availability is the service-unit-weighted available fraction of the
	// epoch: units with a surviving replica ride through at 1.0 (failover),
	// recovered units lose RecoveryTimeS, dead or rejected units lose the
	// whole epoch. 1.0 when nothing was down.
	Availability float64
	// AdmissionRejected counts containers shed by last-resort admission
	// control because even the relaxed spill ceiling could not fit the
	// workload on the surviving capacity.
	AdmissionRejected int
	// RejectedDemand aggregates the shed containers' demand.
	RejectedDemand resources.Vector
	// SpillTarget is the utilization ceiling the policy packed against
	// (Result.TargetUtil): 0.70 at the PEE knee; above it the degradation
	// ladder spilled and the cubic DVFS penalty applies.
	SpillTarget float64

	// Control-plane robustness axes (see Options.SolveDeadline and
	// Options.MigrateRetry).

	// LadderRung is the solve-degradation rung this epoch ran at:
	// 0 = configured policy, 1 = warm-start repair, 2 = greedy first-fit.
	LadderRung int
	// ModeledSolveMS is the deterministic modeled solve cost of the rung
	// that ran, after the epoch's SolveCostFactor.
	ModeledSolveMS float64
	// MigrationRetries counts failed transfer attempts that were retried
	// (or exhausted) this epoch.
	MigrationRetries int
	// DroppedMigrations counts migrations whose every transfer attempt
	// failed. When the source server is alive the container stays on it,
	// so the move is excluded from Migrations/MigrationMB. When the source
	// is dead the container cold-restarts at the destination, so the move
	// still counts there (and in RecoveryMigrations when it was displaced).
	DroppedMigrations int
}

// Runner drives one policy across epochs on one topology.
type Runner struct {
	topo   *topology.Topology
	policy scheduler.Policy
	opts   Options

	epoch        int
	prevPlace    map[int]int // container ID → server id of the last epoch; read through Carried
	totalEnergyJ float64
	totalReqs    float64

	// lastSnap is the previous epoch's metrics snapshot, diffed against the
	// current one to emit per-epoch deltas on the epoch span.
	lastSnap telemetry.Snapshot
	// hLinkUtil is resolved once so the per-link observation loop never
	// touches the registry map.
	hLinkUtil *telemetry.Histogram

	// recordsWritten counts journal appends by this runner instance (not
	// carried across restarts) — the clock crashAfterRecords crashes
	// against.
	recordsWritten int
	// crashAfterRecords, when positive, simulates a control-plane kill:
	// once recordsWritten reaches it, RunEpoch aborts with
	// ErrSimulatedCrash immediately after the record reaches disk. Only
	// ArmCrash sets it.
	crashAfterRecords int
	// auditJournaled is the cursor into the session audit log marking the
	// decisions already journaled; journalAudit writes the slice beyond it.
	auditJournaled int
}

// NewRunner builds a runner. The topology is not mutated.
func NewRunner(topo *topology.Topology, policy scheduler.Policy, opts Options) *Runner {
	if opts.EpochLength <= 0 {
		opts.EpochLength = DefaultOptions().EpochLength
	}
	if opts.PerHopLatencyMS < 0 {
		opts.PerHopLatencyMS = DefaultOptions().PerHopLatencyMS
	}
	return &Runner{
		topo:      topo,
		policy:    policy,
		opts:      opts,
		prevPlace: make(map[int]int),
		hLinkUtil: opts.Telemetry.Histogram("cluster_link_utilization",
			0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
	}
}

// RunEpoch schedules the epoch's workload and returns its report. When the
// topology carries failures (chaos injection between epochs), the epoch is
// also a recovery round: displaced containers are detected against the
// previous placement, the policy re-places on the surviving capacity
// (degrading through its spill ladder), admission control sheds load as a
// last resort, and the report carries the failure axes (recovery.go).
func (r *Runner) RunEpoch(in EpochInput) (EpochReport, error) {
	sess := r.opts.Telemetry
	simAt := time.Duration(r.epoch) * r.opts.EpochLength
	sess.SetEpoch(r.epoch, simAt)
	var espan *telemetry.Span
	if sess != nil {
		espan = sess.Root(fmt.Sprintf("epoch %03d %s", r.epoch, r.policy.Name()), simAt)
	}
	region := rtrace.StartRegion(context.Background(), "cluster.epoch")

	fail := func(err error) (EpochReport, error) {
		espan.End()
		region.End()
		return EpochReport{}, fmt.Errorf("cluster: epoch %d: %w", r.epoch, err)
	}

	carried := r.Carried(in.Spec)
	fspan := espan.Child("snapshot-failures")
	snap := r.snapshotFailures(in.Spec, carried)
	fspan.SetInt("failed_servers", snap.failedServers)
	fspan.SetInt("displaced", len(snap.displaced))
	fspan.End()

	// Degradation ladder: budget the modeled solve cost before placing.
	rung, modeledMS := r.chooseRung(len(in.Spec.Containers), in.SolveCostFactor)
	pol := r.rungPolicy(rung)
	if rung != RungFull {
		sess.Counter("cluster_ladder_downgrades_total").Inc()
		if sess.Auditing() {
			sess.Decide(telemetry.Decision{
				Policy: r.policy.Name(), Container: -1, Group: -1,
				Action: telemetry.ActionDegraded, Server: -1, From: -1,
				Detail: fmt.Sprintf("modeled solve cost exceeds %v budget; running rung %d (%s) at %.1f ms",
					r.opts.SolveDeadline, rung, RungName(rung), modeledMS),
			})
		}
	}

	if err := r.journalEpochBegin(rung, modeledMS); err != nil {
		return fail(err)
	}

	pspan := espan.Child("place")
	pspan.SetInt("ladder_rung", rung)
	pregion := rtrace.StartRegion(context.Background(), "cluster.place")
	res, rejected, err := r.placeWithAdmissionControl(in.Spec, carried, pol, pspan)
	pregion.End()
	if err != nil {
		pspan.SetStr("error", err.Error())
		pspan.End()
		return fail(err)
	}
	pspan.SetFloat("target_util", res.TargetUtil)
	pspan.SetInt("shed", len(rejected))
	pspan.End()

	if err := r.journalPlacement(res, rejected); err != nil {
		return fail(err)
	}

	// Execute the migration transfers (journaling each wave first). A
	// transfer that exhausts its retries reverts the container in
	// res.Placement, so the accounting below sees the effective placement.
	retries, dropped, err := r.executeMigrations(in, carried, &res, espan)
	if err != nil {
		return fail(err)
	}
	moves, err := migrate.PlanMoves(in.Spec, carried, res.Placement)
	if err != nil {
		return fail(err)
	}

	aspan := espan.Child("account")
	rep := r.account(in, res, moves)
	aspan.End()
	rep.LadderRung = rung
	rep.ModeledSolveMS = modeledMS
	rep.MigrationRetries = retries
	rep.DroppedMigrations = dropped

	rspan := espan.Child("recovery")
	r.accountRecovery(&rep, in.Spec, res, snap, rejected)
	rspan.SetInt("recovery_migrations", rep.RecoveryMigrations)
	rspan.End()

	r.recordEpochMetrics(espan, rep)
	espan.End()
	region.End()
	if err := r.journalAudit(); err != nil {
		return rep, fmt.Errorf("cluster: epoch %d: %w", rep.Epoch, err)
	}
	r.epoch++
	if err := r.journalCommit(rep); err != nil {
		return rep, fmt.Errorf("cluster: epoch %d: %w", rep.Epoch, err)
	}
	if sess != nil && sess.ReportSink != nil {
		sess.ReportSink(rep)
	}
	return rep, nil
}

// recordEpochMetrics publishes the epoch report into the metrics registry
// and attaches the per-epoch snapshot delta to the epoch span as events, so
// a trace alone shows what each epoch changed.
func (r *Runner) recordEpochMetrics(espan *telemetry.Span, rep EpochReport) {
	sess := r.opts.Telemetry
	if sess == nil || sess.Metrics == nil {
		return
	}
	m := sess.Metrics
	m.Counter("cluster_epochs_total").Inc()
	m.Counter("cluster_migrations_total").Add(int64(rep.Migrations))
	m.Counter("cluster_recovery_migrations_total").Add(int64(rep.RecoveryMigrations))
	m.Counter("cluster_shed_containers_total").Add(int64(rep.AdmissionRejected))
	m.Gauge("cluster_active_servers").Set(float64(rep.ActiveServers))
	m.Gauge("cluster_mean_server_util").Set(rep.MeanServerUtil)
	m.Gauge("cluster_total_power_w").Set(rep.TotalPowerW)
	m.Gauge("cluster_mean_tct_ms").Set(rep.MeanTCTMS)
	m.Gauge("cluster_spill_target").Set(rep.SpillTarget)
	m.Gauge("cluster_availability").Set(rep.Availability)

	snap := m.Snapshot()
	if espan.Enabled() {
		for _, d := range snap.Sub(r.lastSnap) {
			if d.Value == 0 {
				continue
			}
			espan.Event("metric-delta",
				telemetry.Attr{Key: "name", Val: d.Name},
				telemetry.Attr{Key: "delta", Val: telemetry.FormatFloat(d.Value)})
		}
	}
	r.lastSnap = snap
}

// RunSeries runs consecutive epochs and returns all reports; it stops at
// the first scheduling failure.
func (r *Runner) RunSeries(inputs []EpochInput) ([]EpochReport, error) {
	reports := make([]EpochReport, 0, len(inputs))
	for _, in := range inputs {
		rep, err := r.RunEpoch(in)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// TotalEnergyPerRequest returns joules per request across every epoch run
// so far.
func (r *Runner) TotalEnergyPerRequest() float64 {
	if r.totalReqs == 0 {
		return 0
	}
	return r.totalEnergyJ / r.totalReqs
}

// account derives the epoch report from a placement and the moves that
// reached it from the carried placement, and carries the placement into
// the next epoch.
func (r *Runner) account(in EpochInput, res scheduler.Result, moves []migrate.Move) EpochReport {
	burst := in.Burst
	if burst <= 0 {
		burst = 1
	}
	numServers := r.topo.NumServers()
	loads := make([]resources.Vector, numServers)
	r.prevPlace = make(map[int]int, len(res.Placement))
	for i, s := range res.Placement {
		if s < 0 {
			continue // shed by admission control: runs nowhere, and restarts if re-admitted
		}
		r.prevPlace[in.Spec.Containers[i].ID] = s
		actual := in.Spec.Containers[i].Demand
		actual[resources.CPU] *= burst
		actual[resources.Network] *= burst
		loads[s] = loads[s].Add(actual)
	}
	active := res.ActiveServers(numServers)
	// Failed servers draw no power, even under all-servers-on policies:
	// a dead machine is off, not idle.
	for s := 0; s < numServers; s++ {
		if r.topo.ServerFailed(s) {
			active[s] = false
		}
	}

	// Server power: the load-proportional axis is CPU.
	serverW := 0.0
	activeCount := 0
	utilSum := 0.0
	cpuUtil := make([]float64, numServers)
	for s := 0; s < numServers; s++ {
		u := loads[s].Utilization(r.topo.Capacity[s])[resources.CPU]
		cpuUtil[s] = u
		if !active[s] {
			continue
		}
		activeCount++
		utilSum += u
		serverW += r.topo.Server[s].Power(u)
	}

	linkLoad := r.linkLoads(in.Spec, res.Placement, burst)
	networkW := r.networkPower(active, linkLoad)

	linkUtil := make(map[*topology.Link]float64, len(linkLoad))
	for l, mbps := range linkLoad {
		if l.CapacityMbps > 0 {
			linkUtil[l] = math.Min(mbps/l.CapacityMbps, maxLinkUtil)
		} else {
			linkUtil[l] = maxLinkUtil
		}
	}
	// Histogram increments commute, so ranging the map directly is safe:
	// the resulting buckets are identical under any iteration order.
	for _, u := range linkUtil {
		r.hLinkUtil.Observe(u)
	}
	tct, weights := r.taskCompletionTimes(in.Spec, res.Placement, cpuUtil, linkUtil)
	stats := metrics.SummarizeWeightedTCT(tct, weights)
	slaViolations := 0.0
	if r.opts.SLATargetMS > 0 {
		var badW, totalW float64
		for i, ms := range tct {
			totalW += weights[i]
			if ms > r.opts.SLATargetMS {
				badW += weights[i]
			}
		}
		if totalW > 0 {
			slaViolations = badW / totalW
		}
	}

	energy := (serverW + networkW) * r.opts.EpochLength.Seconds()
	servedRPS := in.RPS
	if stats.MeanMS > 0 && stats.Count > 0 {
		// Closed-loop cap: each of the Count query connections completes
		// at most 1000/TCT_ms requests per second.
		capRPS := float64(stats.Count) * 1000 / stats.MeanMS
		servedRPS = math.Min(servedRPS, capRPS)
	}
	requests := servedRPS * r.opts.EpochLength.Seconds()
	r.totalEnergyJ += energy
	r.totalReqs += requests

	migMB := 0.0
	for _, m := range moves {
		migMB += m.ImageMB
	}

	rep := EpochReport{
		Epoch:         r.epoch,
		Time:          time.Duration(r.epoch) * r.opts.EpochLength,
		Policy:        r.policy.Name(),
		ActiveServers: activeCount,
		ServerPowerW:  serverW,
		NetworkPowerW: networkW,
		TotalPowerW:   serverW + networkW,
		TCT:           stats,
		MeanTCTMS:     stats.MeanMS,
		Requests:      requests,
		EnergyJ:       energy,
		Migrations:    len(moves),
		MigrationMB:   migMB,
		SLAViolations: slaViolations,
	}
	if requests > 0 {
		rep.EnergyPerRequestJ = energy / requests
	}
	if activeCount > 0 {
		rep.MeanServerUtil = utilSum / float64(activeCount)
	}
	return rep
}

// networkPower powers ToRs of active racks and a *traffic-proportional*
// number of aggregation/core switches plus backup paths (§II: idle
// switches and links are turned off only after task packing, so a
// locality-preserving placement that keeps traffic inside racks lets the
// fabric layer power down).
func (r *Runner) networkPower(active []bool, linkLoad map[*topology.Link]float64) float64 {
	total := 0.0
	activeIn := func(n *topology.Node) int {
		c := 0
		for _, s := range n.ServerIDs {
			if active[s] {
				c++
			}
		}
		return c
	}
	for _, n := range r.topo.Nodes() {
		if len(n.Switches) == 0 {
			continue
		}
		switch n.Level {
		case topology.LevelRack:
			servers := activeIn(n)
			if servers == 0 {
				continue // whole rack dark: ToR off
			}
			for _, sg := range n.Switches {
				// Ports: one per active server plus the uplink ports
				// the rack's outbound traffic actually needs (plus a
				// backup).
				uplinks := 1 + backupSwitches
				if n.Uplink != nil && n.Uplink.CapacityMbps > 0 {
					perPort := n.Uplink.CapacityMbps / float64(sg.Model.NumPorts/2)
					uplinks += int(math.Ceil(linkLoad[n.Uplink] / perPort))
				}
				total += sg.Model.Power(servers+uplinks) * float64(sg.Count)
			}
		case topology.LevelPod, topology.LevelRoot:
			// Aggregation/core: the traffic transiting this layer is
			// the sum of the children's uplink loads; power the number
			// of switches that traffic needs, plus backups.
			activeChildren := 0
			transit := 0.0
			var childCap float64
			for _, c := range n.Children {
				if activeIn(c) > 0 {
					activeChildren++
				}
				if c.Uplink != nil {
					transit += linkLoad[c.Uplink]
					childCap += c.Uplink.CapacityMbps
				}
			}
			if activeChildren == 0 {
				continue
			}
			for _, sg := range n.Switches {
				on := 1 + backupSwitches
				if childCap > 0 {
					share := childCap / float64(sg.Count) // capacity one switch provides
					on = int(math.Ceil(transit/share)) + backupSwitches
					if on < 1+backupSwitches {
						on = 1 + backupSwitches
					}
				}
				if on > sg.Count {
					on = sg.Count
				}
				ports := sg.Model.NumPorts * activeChildren / len(n.Children)
				if ports < 2 {
					ports = 2
				}
				total += sg.Model.Power(ports) * float64(on)
			}
		}
	}
	return total
}

// linkLoads estimates per-link traffic (Mbps) from the placement: every
// container's network demand is spread over its flows proportionally to
// flow weight, and each flow charges its path. This feeds both the
// congestion term of the TCT model and the fabric power-down accounting.
func (r *Runner) linkLoads(spec *workload.Spec, placement []int, burst float64) map[*topology.Link]float64 {
	// Per-container total flow weight.
	flowWeight := make([]float64, len(spec.Containers))
	for _, f := range spec.Flows {
		flowWeight[f.A] += f.Count
		flowWeight[f.B] += f.Count
	}
	load := make(map[*topology.Link]float64)
	for _, f := range spec.Flows {
		sa, sb := placement[f.A], placement[f.B]
		if sa < 0 || sb < 0 {
			continue // a shed endpoint generates no traffic
		}
		if sa == sb {
			continue // intra-server traffic never touches the fabric
		}
		traffic := 0.0
		if flowWeight[f.A] > 0 {
			traffic += spec.Containers[f.A].Demand[resources.Network] * f.Count / flowWeight[f.A]
		}
		if flowWeight[f.B] > 0 {
			traffic += spec.Containers[f.B].Demand[resources.Network] * f.Count / flowWeight[f.B]
		}
		traffic = traffic / 2 * burst // average the two endpoint estimates, apply the burst
		for _, l := range r.topo.PathLinks(sa, sb) {
			load[l] += traffic
		}
	}
	return load
}

// taskCompletionTimes returns one latency sample per accounted flow,
// weighted by the flow's request count so statistics are per-request:
// M/M/c queueing at the responder's server plus congestion-inflated
// per-hop latency along the pair's path — the paper's two levers
// (headroom and locality) in one number.
func (r *Runner) taskCompletionTimes(spec *workload.Spec, placement []int, cpuUtil []float64, linkUtil map[*topology.Link]float64) (samples, weights []float64) {
	for _, f := range spec.Flows {
		a, b := f.A, f.B
		ca, cb := spec.Containers[a], spec.Containers[b]
		if r.opts.FocusApp != "" && (ca.App.Name != r.opts.FocusApp || cb.App.Name != r.opts.FocusApp) {
			continue
		}
		sa, sb := placement[a], placement[b]
		if sa < 0 || sb < 0 {
			continue // a shed endpoint serves no requests
		}
		// Queueing at the responder's server: M/M/c with c = cores.
		rho := math.Min(cpuUtil[sb], maxQueueUtil)
		service := cb.App.ServiceTimeMS
		cores := r.topo.Capacity[sb][resources.CPU] / 100
		queued := service + service*queueWaitFactor(rho, cores)
		network := 0.0
		for _, l := range r.topo.PathLinks(sa, sb) {
			network += r.opts.PerHopLatencyMS / (1 - linkUtil[l])
		}
		samples = append(samples, queued+network)
		weights = append(weights, f.Count)
	}
	return samples, weights
}

// queueWaitFactor returns the expected waiting time as a multiple of the
// service time for an M/M/c queue at utilization rho, using Sakasegawa's
// approximation W/S ≈ ρ^√(2(c+1)) / (c·(1−ρ)). For c = 1 this reduces to
// the familiar ρ/(1−ρ); for many-core servers it stays near zero until
// utilization approaches saturation — the effect that makes Peak Energy
// Efficiency packing latency-safe while 95% packing is not.
func queueWaitFactor(rho, cores float64) float64 {
	if cores < 1 {
		cores = 1
	}
	if rho <= 0 {
		return 0
	}
	if rho >= 1 {
		rho = 0.999
	}
	return math.Pow(rho, math.Sqrt(2*(cores+1))) / (cores * (1 - rho))
}

// Carried maps the placement the runner carries from the last epoch (the
// one Snapshot journals) onto spec's container indices: Carried(spec)[i]
// is the server container i ran on, or −1 when it was not carried. Each
// epoch derives it once, and the failure snapshot, the policy request,
// the migration waves and the migration count all read that one slice.
func (r *Runner) Carried(spec *workload.Spec) []int {
	carried := make([]int, len(spec.Containers))
	for i, c := range spec.Containers {
		carried[i] = -1
		if s, ok := r.prevPlace[c.ID]; ok && s >= 0 && s < r.topo.NumServers() {
			carried[i] = s
		}
	}
	return carried
}
