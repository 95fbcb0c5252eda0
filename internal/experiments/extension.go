package experiments

import (
	"fmt"
	"io"

	"goldilocks/internal/cluster"
	"goldilocks/internal/migrate"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// ExtIncrementalOptions parameterizes the §IV-C extension evaluation:
// fresh-per-epoch Goldilocks versus the migration-budgeted incremental
// variant across a drifting load.
type ExtIncrementalOptions struct {
	Containers      int
	Epochs          int
	MigrationBudget float64
	Seed            int64
	// Telemetry, when non-nil, threads the observability session through
	// the cluster runner (spans, metrics, audit decisions).
	Telemetry *telemetry.Session
}

// DefaultExtIncremental mirrors the testbed scale.
func DefaultExtIncremental() ExtIncrementalOptions {
	return ExtIncrementalOptions{Containers: 150, Epochs: 24, MigrationBudget: 0.10, Seed: 21}
}

// ExtIncrementalRow is one scheduler's aggregate outcome.
type ExtIncrementalRow struct {
	Scheduler      string
	Migrations     int
	MigrationMB    float64
	TotalFreezeSec float64
	MeanPowerW     float64
	MeanTCTMS      float64
}

// ExtIncrementalResult compares the two schedulers.
type ExtIncrementalResult struct {
	Opts ExtIncrementalOptions
	Rows []ExtIncrementalRow
}

// ExtIncremental drives both schedulers across a diurnal-ish load walk and
// prices every container move the runner makes with the CRIU
// checkpoint/transfer model.
func ExtIncremental(opts ExtIncrementalOptions) (*ExtIncrementalResult, error) {
	if opts.Containers <= 0 {
		opts = DefaultExtIncremental()
	}
	base := workload.TwitterWorkload(opts.Containers, opts.Seed)
	wiki := workload.WikipediaPattern{MinRPS: 0.45, MaxRPS: 1.0, PeriodMinutes: opts.Epochs}

	res := &ExtIncrementalResult{Opts: opts}
	type namedPolicy struct {
		name   string
		policy scheduler.Policy
	}
	policies := []namedPolicy{
		{"Goldilocks (fresh)", scheduler.Goldilocks{}},
		{"Goldilocks-incremental", &scheduler.IncrementalGoldilocks{MigrationBudget: opts.MigrationBudget}},
	}
	for _, np := range policies {
		topo := topology.NewTestbed()
		copts := cluster.DefaultOptions()
		copts.Telemetry = opts.Telemetry
		runner := cluster.NewRunner(topo, np.policy, copts)
		row := ExtIncrementalRow{Scheduler: np.name}
		for e := 0; e < opts.Epochs; e++ {
			factor := wiki.RPS(e) // reused as a 0.45–1.0 load factor
			spec := base.Scaled(factor)
			before := runner.Carried(spec)
			rep, err := runner.RunEpoch(cluster.EpochInput{Spec: spec, RPS: 300000 * factor})
			if err != nil {
				return nil, fmt.Errorf("ext-incremental: %s epoch %d: %w", np.name, e, err)
			}
			row.MeanPowerW += rep.TotalPowerW / float64(opts.Epochs)
			row.MeanTCTMS += rep.MeanTCTMS / float64(opts.Epochs)
			row.Migrations += rep.Migrations
			row.MigrationMB += rep.MigrationMB
			// Price the epoch's moves with the CRIU/transfer simulator.
			moves, err := migrate.PlanMoves(spec, before, runner.Carried(spec))
			if err != nil {
				return nil, fmt.Errorf("ext-incremental: %s epoch %d: pricing moves: %w", np.name, e, err)
			}
			row.TotalFreezeSec += migrate.Simulate(topo, migrate.Schedule(moves), migrate.Options{}).TotalFreeze.Seconds()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the comparison.
func (r *ExtIncrementalResult) Print(w io.Writer) {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Scheduler,
			d0(float64(row.Migrations)),
			d0(row.MigrationMB),
			f1(row.TotalFreezeSec),
			d0(row.MeanPowerW),
			f2(row.MeanTCTMS),
		}
	}
	table(w, []string{"scheduler", "migrations", "migrated MB", "freeze (s)", "avg power (W)", "avg TCT (ms)"}, rows)
}
