package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"goldilocks/internal/chaos"
	"goldilocks/internal/cluster"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/sim"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// ChaosOptions parameterizes the failure-injection evaluation: every
// policy runs the same epochs under the same seeded fault schedule, so
// differences in availability, recovery traffic and power are pure policy
// effects. MTTF and burst size sweep as a cross product.
type ChaosOptions struct {
	Containers  int
	Epochs      int
	Seed        int64
	EpochLength time.Duration
	// MTTFEpochs sweeps the per-server mean time to failure, in epochs.
	MTTFEpochs []float64
	// MTTREpochs is the mean outage duration, in epochs.
	MTTREpochs float64
	// BurstSizes sweeps the correlated crash burst size.
	BurstSizes []int
	// Fault-mix fractions, forwarded to chaos.GenConfig.
	RackFaultFraction float64
	StragglerFraction float64
	LinkFaultFraction float64
	// Telemetry, when non-nil, threads the observability session through
	// the cluster runner (spans, metrics, audit decisions).
	Telemetry *telemetry.Session
}

// DefaultChaos mirrors the testbed scale: a mixture workload with
// replicated cassandra trios, 10-minute epochs (recovery must converge
// within one epoch, including multi-GB image pulls over 1G NICs), and an
// aggressive MTTF so a 12-epoch run sees several faults.
func DefaultChaos() ChaosOptions {
	return ChaosOptions{
		Containers:        48,
		Epochs:            12,
		Seed:              29,
		EpochLength:       10 * time.Minute,
		MTTFEpochs:        []float64{6, 3},
		MTTREpochs:        1.5,
		BurstSizes:        []int{1, 3},
		RackFaultFraction: 0.25,
		StragglerFraction: 0.15,
		LinkFaultFraction: 0.10,
	}
}

// ChaosRow is one (MTTF, burst, policy) cell aggregated over the run.
type ChaosRow struct {
	MTTFEpochs float64
	BurstSize  int
	Scheduler  string
	// MeanAvailability / MinAvailability are service-unit-weighted uptime
	// over the epochs (1.0 = no unit ever lost its whole footprint).
	MeanAvailability float64
	MinAvailability  float64
	MeanTCTMS        float64
	MeanPowerW       float64
	MeanSpillTarget  float64
	Migrations       int
	MigrationMB      float64
	RecoveryMoves    int
	Rejected         int
	GroupsDownEpochs int
}

// ChaosResult is the full sweep.
type ChaosResult struct {
	Opts ChaosOptions
	Rows []ChaosRow
}

// chaosPolicies lists the four baselines, the paper's policy, and the
// §IV-C incremental variant.
func chaosPolicies() []scheduler.Policy {
	return []scheduler.Policy{
		scheduler.EPVM{}, scheduler.MPP{}, scheduler.Borg{}, scheduler.RCInformed{},
		scheduler.Goldilocks{}, &scheduler.IncrementalGoldilocks{},
	}
}

// Chaos runs the failure-injection sweep. For each (MTTF, burst) cell one
// fault schedule is generated on a pristine testbed and replayed, through
// a fresh injector, against every policy — identical faults, different
// placements, so anti-affinity and the degradation ladder show up directly
// in the availability and power columns.
func Chaos(opts ChaosOptions) (*ChaosResult, error) {
	if opts.Containers <= 0 {
		opts = DefaultChaos()
	}
	spec := workload.MixtureWorkload(opts.Containers, opts.Seed)
	res := &ChaosResult{Opts: opts}
	policies := chaosPolicies()

	cell := 0
	for _, mttf := range opts.MTTFEpochs {
		for _, burst := range opts.BurstSizes {
			cfg := chaos.GenConfig{
				// Offset per cell so sweeps don't replay one schedule.
				Seed:              opts.Seed + int64(101*cell),
				Horizon:           time.Duration(opts.Epochs) * opts.EpochLength,
				MTTF:              time.Duration(mttf * float64(opts.EpochLength)),
				MTTR:              time.Duration(opts.MTTREpochs * float64(opts.EpochLength)),
				BurstSize:         burst,
				RackFaultFraction: opts.RackFaultFraction,
				StragglerFraction: opts.StragglerFraction,
				LinkFaultFraction: opts.LinkFaultFraction,
			}
			cell++
			sched, err := chaos.Generate(topology.NewTestbed(), cfg)
			if err != nil {
				return nil, fmt.Errorf("chaos: generate mttf=%v burst=%d: %w", mttf, burst, err)
			}
			for _, p := range policies {
				row, err := chaosRun(spec, sched, p, opts)
				if err != nil {
					return nil, fmt.Errorf("chaos: %s mttf=%v burst=%d: %w", p.Name(), mttf, burst, err)
				}
				row.MTTFEpochs = mttf
				row.BurstSize = burst
				row.Scheduler = p.Name()
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// chaosRun replays one fault schedule against one policy.
func chaosRun(spec *workload.Spec, sched chaos.Schedule, policy scheduler.Policy, opts ChaosOptions) (ChaosRow, error) {
	topo := topology.NewTestbed()
	eng := &sim.Engine{}
	inj, err := chaos.NewInjector(eng, topo, sched)
	if err != nil {
		return ChaosRow{}, err
	}
	inj.AttachTelemetry(opts.Telemetry)
	copts := cluster.DefaultOptions()
	copts.EpochLength = opts.EpochLength
	copts.Telemetry = opts.Telemetry
	runner := cluster.NewRunner(topo, policy, copts)

	row := ChaosRow{MinAvailability: 1}
	n := float64(opts.Epochs)
	for e := 0; e < opts.Epochs; e++ {
		// Faults and recoveries up to this epoch boundary mutate the
		// topology; the runner then detects the damage and re-places.
		inj.AdvanceTo(time.Duration(e) * opts.EpochLength)
		rep, err := runner.RunEpoch(cluster.EpochInput{Spec: spec, RPS: 1000})
		if err != nil {
			return ChaosRow{}, fmt.Errorf("epoch %d: %w", e, err)
		}
		row.MeanAvailability += rep.Availability / n
		row.MeanTCTMS += rep.MeanTCTMS / n
		row.MeanPowerW += rep.TotalPowerW / n
		row.MeanSpillTarget += rep.SpillTarget / n
		if rep.Availability < row.MinAvailability {
			row.MinAvailability = rep.Availability
		}
		row.Migrations += rep.Migrations
		row.MigrationMB += rep.MigrationMB
		row.RecoveryMoves += rep.RecoveryMigrations
		row.Rejected += rep.AdmissionRejected
		if rep.GroupsDown > 0 {
			row.GroupsDownEpochs++
		}
	}
	return row, nil
}

// Print renders the sweep, one block per (MTTF, burst) cell.
func (r *ChaosResult) Print(w io.Writer) {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			f1(row.MTTFEpochs),
			strconv.Itoa(row.BurstSize),
			row.Scheduler,
			pc(row.MeanAvailability),
			pc(row.MinAvailability),
			f2(row.MeanTCTMS),
			d0(row.MeanPowerW),
			pc(row.MeanSpillTarget),
			d0(float64(row.Migrations)),
			d0(row.MigrationMB),
			d0(float64(row.RecoveryMoves)),
			d0(float64(row.Rejected)),
		}
	}
	table(w, []string{
		"MTTF (epochs)", "burst", "scheduler", "availability", "worst epoch",
		"avg TCT (ms)", "avg power (W)", "avg spill", "migrations",
		"migrated MB", "recovery moves", "rejected",
	}, rows)
}

// WriteCSV emits one row per (MTTF, burst, policy).
func (r *ChaosResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"mttf_epochs", "burst", "policy", "mean_availability", "min_availability",
		"mean_tct_ms", "mean_power_w", "mean_spill_target", "migrations",
		"migration_mb", "recovery_moves", "rejected", "groups_down_epochs",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			fmtF(row.MTTFEpochs),
			strconv.Itoa(row.BurstSize),
			row.Scheduler,
			fmtF(row.MeanAvailability),
			fmtF(row.MinAvailability),
			fmtF(row.MeanTCTMS),
			fmtF(row.MeanPowerW),
			fmtF(row.MeanSpillTarget),
			strconv.Itoa(row.Migrations),
			fmtF(row.MigrationMB),
			strconv.Itoa(row.RecoveryMoves),
			strconv.Itoa(row.Rejected),
			strconv.Itoa(row.GroupsDownEpochs),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
