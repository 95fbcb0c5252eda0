// CrashChaos is the control-plane chaos experiment: one journaled
// Goldilocks cell run under a seeded fault schedule that attacks the
// *scheduler* as well as the fabric — solve stragglers inflate the modeled
// solve cost (exercising the deadline degradation ladder), migration
// flakes fail transfer attempts (exercising seeded retry/backoff), and
// scheduler-crash faults kill the control plane mid-epoch at a chosen
// journal-record boundary (exercising write-ahead recovery).
//
// The harness is the experiment-level face of the crash-recovery
// contract: a run killed at ANY record boundary and resumed from its
// journal must emit exactly the epoch lines the uninterrupted run emits,
// ending in the same state hash. `make crash-replay-guard` holds the CLI
// to that promise byte-for-byte.
package experiments

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"goldilocks/internal/chaos"
	"goldilocks/internal/cluster"
	"goldilocks/internal/journal"
	"goldilocks/internal/migrate"
	"goldilocks/internal/partition"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/sim"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// CrashChaosOptions parameterizes the journaled chaos run.
type CrashChaosOptions struct {
	Containers  int
	Epochs      int
	Seed        int64
	EpochLength time.Duration
	// Parallelism bounds the partitioner worker pool (0 = GOMAXPROCS).
	// Reports are bit-identical at every level — the determinism test
	// sweeps 1/4/8.
	Parallelism int

	// Fabric-fault mix, forwarded to chaos.GenConfig.
	MTTFEpochs        float64
	MTTREpochs        float64
	BurstSize         int
	RackFaultFraction float64
	LinkFaultFraction float64
	// Control-plane fault mix.
	SolveStragglerFraction float64
	MigrationFlakeFraction float64

	// SolveDeadline budgets the degradation ladder (0 = always rung 0).
	SolveDeadline time.Duration
	// Retry is the migration retry/backoff policy.
	Retry migrate.RetryPolicy

	// JournalPath write-ahead journals the run ("" = no journal).
	JournalPath string
	// Resume recovers from JournalPath instead of starting fresh: the
	// journal's committed epochs are replayed into the result verbatim
	// and execution continues from the recovered state.
	Resume bool
	// CrashAtEpoch injects a scheduler-crash fault at that epoch's
	// boundary (-1 = none); CrashAtRecord picks the journal-record
	// boundary within the epoch the kill lands on (-1 = before any
	// record is written).
	CrashAtEpoch  int
	CrashAtRecord int

	Telemetry *telemetry.Session
}

// DefaultCrashChaos is a 20-epoch cell where every defense layer fires:
// rack faults displace replicas, solve stragglers push the ladder off
// rung 0, migration flakes force retries and the occasional drop.
func DefaultCrashChaos() CrashChaosOptions {
	return CrashChaosOptions{
		Containers:             48,
		Epochs:                 20,
		Seed:                   31,
		EpochLength:            10 * time.Minute,
		MTTFEpochs:             5,
		MTTREpochs:             1.5,
		BurstSize:              2,
		RackFaultFraction:      0.20,
		LinkFaultFraction:      0.10,
		SolveStragglerFraction: 0.15,
		MigrationFlakeFraction: 0.15,
		SolveDeadline:          40 * time.Millisecond,
		Retry:                  migrate.RetryPolicy{MaxAttempts: 4, BaseBackoff: 250 * time.Millisecond, FlakeProb: 0.05, Seed: 7},
		CrashAtEpoch:           -1,
		CrashAtRecord:          -1,
	}
}

// CrashChaosResult is the run outcome: the epoch report stream (including
// reports replayed from the journal on resume), the crash/recovery
// metadata, and the final state hash.
type CrashChaosResult struct {
	Opts    CrashChaosOptions
	Reports []cluster.EpochReport
	// Replayed is how many leading Reports were decoded from the journal
	// rather than re-executed (resume only).
	Replayed int
	// Crashed marks a run ended by a scheduler-crash fault; CrashEpoch is
	// the epoch the kill interrupted.
	Crashed    bool
	CrashEpoch int
	// Resumed marks a run recovered from a journal; TornTail reports
	// whether the journal ended in a torn (CRC-invalid) record, and
	// Reconcile classifies the uncommitted tail.
	Resumed   bool
	TornTail  bool
	Reconcile *cluster.ReconcileReport
	// FinalEpoch and FinalHash identify the end state (only set when the
	// run completed without crashing).
	FinalEpoch int
	FinalHash  uint64
}

// crashChaosConfigHash stamps the journal checkpoint with the execution
// parameters: resuming under a different workload, schedule, deadline, or
// retry policy would diverge from the journaled intents, so RecoverJournal
// refuses it.
func crashChaosConfigHash(o CrashChaosOptions) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "crashchaos|%d|%d|%v|%g|%g|%d|%g|%g|%g|%g|%v|%d|%v|%g|%d",
		o.Containers, o.Seed, o.EpochLength,
		o.MTTFEpochs, o.MTTREpochs, o.BurstSize,
		o.RackFaultFraction, o.LinkFaultFraction,
		o.SolveStragglerFraction, o.MigrationFlakeFraction,
		o.SolveDeadline,
		o.Retry.MaxAttempts, o.Retry.BaseBackoff, o.Retry.FlakeProb, o.Retry.Seed)
	return h.Sum64()
}

// crashChaosSchedule generates the fault schedule, appending the explicit
// scheduler-crash fault when CrashAtEpoch asks for one.
func crashChaosSchedule(opts CrashChaosOptions, topo *topology.Topology) (chaos.Schedule, error) {
	cfg := chaos.GenConfig{
		Seed:                   opts.Seed,
		Horizon:                time.Duration(opts.Epochs) * opts.EpochLength,
		MTTF:                   time.Duration(opts.MTTFEpochs * float64(opts.EpochLength)),
		MTTR:                   time.Duration(opts.MTTREpochs * float64(opts.EpochLength)),
		BurstSize:              opts.BurstSize,
		RackFaultFraction:      opts.RackFaultFraction,
		LinkFaultFraction:      opts.LinkFaultFraction,
		SolveStragglerFraction: opts.SolveStragglerFraction,
		MigrationFlakeFraction: opts.MigrationFlakeFraction,
	}
	sched, err := chaos.Generate(topo, cfg)
	if err != nil {
		return sched, err
	}
	if opts.CrashAtEpoch >= 0 {
		sched.Faults = append(sched.Faults, chaos.Fault{
			Kind:   chaos.KindSchedulerCrash,
			At:     time.Duration(opts.CrashAtEpoch) * opts.EpochLength,
			Server: -1, Node: -1,
			Record: opts.CrashAtRecord,
		})
		sched.Sort()
	}
	return sched, nil
}

// CrashChaos runs (or resumes) the journaled chaos cell.
func CrashChaos(opts CrashChaosOptions) (*CrashChaosResult, error) {
	if opts.Containers <= 0 {
		opts = DefaultCrashChaos()
	}
	sess := opts.Telemetry
	spec := workload.MixtureWorkload(opts.Containers, opts.Seed)
	topo := topology.NewTestbed()
	eng := &sim.Engine{}
	sched, err := crashChaosSchedule(opts, topo)
	if err != nil {
		return nil, fmt.Errorf("crashchaos: generate schedule: %w", err)
	}
	inj, err := chaos.NewInjector(eng, topo, sched)
	if err != nil {
		return nil, fmt.Errorf("crashchaos: injector: %w", err)
	}
	inj.AttachTelemetry(sess)

	popts := partition.DefaultOptions()
	popts.Parallelism = opts.Parallelism
	policy := scheduler.Goldilocks{Partition: popts}

	copts := cluster.DefaultOptions()
	copts.EpochLength = opts.EpochLength
	copts.Telemetry = sess
	copts.SolveDeadline = opts.SolveDeadline
	copts.MigrateRetry = opts.Retry

	res := &CrashChaosResult{Opts: opts, CrashEpoch: -1, FinalEpoch: -1}
	cfgHash := crashChaosConfigHash(opts)
	start := 0

	// The resume boundary: scheduler-crash faults at or before it already
	// fired in the crashed run and must not re-kill the re-execution (the
	// fault models a transient control-plane death, not a crash loop).
	skipCrashesUpTo := time.Duration(-1)

	var recovered *cluster.JournalView
	if opts.JournalPath != "" && opts.Resume {
		w, out, err := cluster.RecoverJournal(opts.JournalPath, cfgHash, sess)
		if err != nil {
			return nil, fmt.Errorf("crashchaos: resume: %w", err)
		}
		defer w.Close()
		copts.Journal = w
		recovered = &out
		res.Resumed = true
		res.TornTail = out.Torn
		res.Reports = append(res.Reports, out.Reports...)
		res.Replayed = len(out.Reports)
		start = out.State.Epoch
		skipCrashesUpTo = time.Duration(start) * opts.EpochLength
	} else if opts.JournalPath != "" {
		w, err := journal.Create(opts.JournalPath, sess)
		if err != nil {
			return nil, fmt.Errorf("crashchaos: create journal: %w", err)
		}
		defer w.Close()
		copts.Journal = w
	}

	runner := cluster.NewRunner(topo, policy, copts)
	if recovered != nil {
		runner.Restore(recovered.State)
		// Replay the committed audit history into the live session (the
		// records carry their original epoch stamps, so they bypass Decide)
		// and sync the runner's cursor so they are not re-journaled.
		if sess.Auditing() {
			for _, d := range recovered.Audit {
				sess.Audit.Record(d)
			}
		}
		runner.SyncAuditCursor()
		// Replay the fault schedule up to the interrupted epoch's boundary
		// so the topology carries exactly the failure state the crashed run
		// saw, then audit what the crash tore.
		inj.AdvanceTo(time.Duration(start) * opts.EpochLength)
		rec, err := runner.Reconcile(spec, recovered.Orphans)
		if err != nil {
			return nil, fmt.Errorf("crashchaos: reconcile: %w", err)
		}
		res.Reconcile = &rec
	} else if copts.Journal != nil {
		if err := cluster.WriteCheckpoint(copts.Journal, cfgHash, runner.Snapshot()); err != nil {
			return nil, fmt.Errorf("crashchaos: checkpoint: %w", err)
		}
	}

	logIdx := len(inj.Log())
	for e := start; e < opts.Epochs; e++ {
		inj.AdvanceTo(time.Duration(e) * opts.EpochLength)

		// Scheduler-crash faults that fired by this boundary kill the
		// control plane during epoch e, after CrashAtRecord journal
		// records (-1 = before the epoch writes anything).
		crashRecord := -2
		for _, rec := range inj.Log()[logIdx:] {
			f := rec.Fault
			if f.Kind == chaos.KindSchedulerCrash && !rec.Recovered && rec.At > skipCrashesUpTo {
				crashRecord = f.Record
			}
		}
		logIdx = len(inj.Log())
		if crashRecord == -1 {
			res.Crashed, res.CrashEpoch = true, e
			return res, nil
		}
		if crashRecord >= 0 {
			runner.ArmCrash(crashRecord + 1)
		}

		rep, err := runner.RunEpoch(cluster.EpochInput{
			Spec:               spec,
			RPS:                1000,
			SolveCostFactor:    inj.SolveInflation(),
			MigrationFlakeProb: inj.MigrationFlakeProb(),
		})
		if errors.Is(err, cluster.ErrSimulatedCrash) {
			res.Crashed, res.CrashEpoch = true, e
			return res, nil
		}
		if err != nil {
			return nil, fmt.Errorf("crashchaos: epoch %d: %w", e, err)
		}
		res.Reports = append(res.Reports, rep)
	}
	res.FinalEpoch = runner.Epoch()
	res.FinalHash = runner.Snapshot().Hash()
	return res, nil
}

// Print renders the run. The "epoch" and "final" lines are the
// byte-identity surface the crash-replay guard diffs: an uninterrupted run
// and a crash+resume pair must print them identically. Crash and recovery
// metadata lines are prefixed distinctly so the guard can filter them.
func (r *CrashChaosResult) Print(w io.Writer) {
	if r.Resumed {
		torn := "clean"
		if r.TornTail {
			torn = "torn tail truncated"
		}
		fmt.Fprintf(w, "recovered: %d committed epochs replayed from journal (%s)\n", r.Replayed, torn)
		if rec := r.Reconcile; rec != nil && rec.UncommittedEpoch >= 0 {
			fmt.Fprintf(w, "reconcile: epoch=%d rung=%s orphan-waves=%d rolled-back=%d replaced=%d\n",
				rec.UncommittedEpoch, cluster.RungName(rec.Rung), rec.OrphanWaves, rec.RolledBack, rec.Replaced)
		}
	}
	for _, rep := range r.Reports {
		fmt.Fprintf(w, "epoch %d rung=%s solve=%.2fms avail=%.4f power=%.1fW migrations=%d retries=%d dropped=%d failed=%d\n",
			rep.Epoch, cluster.RungName(rep.LadderRung), rep.ModeledSolveMS, rep.Availability,
			rep.TotalPowerW, rep.Migrations, rep.MigrationRetries, rep.DroppedMigrations, rep.FailedServers)
	}
	if r.Crashed {
		fmt.Fprintf(w, "crash: simulated control-plane kill during epoch %d\n", r.CrashEpoch)
		return
	}
	fmt.Fprintf(w, "final: epoch=%d state-hash=%016x\n", r.FinalEpoch, r.FinalHash)
}
