// Control-plane robustness: the deadline-budgeted solve-degradation
// ladder and the retrying migration executor.
//
// Both mechanisms treat the scheduler itself as a failable component. The
// ladder answers "what if the solver is too slow this epoch?" — instead of
// blowing the epoch boundary, the runner swaps in a cheaper policy: the
// configured policy at rung 0, a warm-start repair of the carried
// placement at rung 1, greedy first-fit at rung 2. The cost each rung is
// judged by is *modeled*, a pure function of workload size (wall clock
// would make the choice — and therefore the whole report stream —
// irreproducible across hosts and across crash-resume re-execution). The
// migration executor answers "what if a checkpoint transfer fails?" — it
// runs the epoch's transfer waves through internal/migrate with a seeded
// retry/backoff policy, and a transfer that exhausts its attempts reverts
// the container to its source in the effective placement so the loss is
// visible in the report's failure axes, never silent.
package cluster

import (
	"errors"
	"math"

	"goldilocks/internal/det"
	"goldilocks/internal/journal"
	"goldilocks/internal/migrate"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/telemetry"
)

// ErrSimulatedCrash is returned by RunEpoch when a crash armed by ArmCrash
// fires: the control plane "died" immediately after the journal record it
// just wrote reached disk. The journal is left exactly as a real kill at
// that point would leave it.
var ErrSimulatedCrash = errors.New("cluster: simulated control-plane crash")

// Degradation-ladder rungs, cheapest last.
const (
	// RungFull runs the configured policy (full multilevel partition).
	RungFull = 0
	// RungWarmStart repairs the carried placement with a fresh
	// warm-started incremental scheduler instead of repartitioning.
	RungWarmStart = 1
	// RungGreedy falls back to greedy first-fit-decreasing — the floor:
	// it always runs, deadline or not.
	RungGreedy = 2
)

// RungName names a ladder rung for reports, logs, and audit records.
func RungName(rung int) string {
	switch rung {
	case RungFull:
		return "full"
	case RungWarmStart:
		return "warm-start"
	default:
		return "greedy"
	}
}

// modeledSolveMS is the deterministic solve-cost model the deadline
// budgets against, in milliseconds: full partitioning is sort-dominated
// O(n log n) with a healthy constant, warm-start repair touches each
// container a constant number of times, greedy first-fit is a sort plus a
// linear scan. The absolute scale is calibrated so a ~2000-container cell
// solves in ~2 s at rung 0 — what the testbed scheduler measures — but
// only the *ratios* and the factor matter for ladder behavior.
func modeledSolveMS(rung, containers, servers int, factor float64) float64 {
	if factor <= 0 {
		factor = 1
	}
	n, m := float64(containers), float64(servers)
	var base float64
	switch rung {
	case RungFull:
		base = 0.09*n*math.Log2(n+2) + 0.05*m
	case RungWarmStart:
		base = 0.04*n + 0.02*m
	default:
		base = 0.002*n*math.Log2(n+2) + 0.002*m
	}
	return base * factor
}

// chooseRung walks the ladder top-down and returns the first rung whose
// modeled cost fits the solve deadline, with greedy as the unconditional
// floor. No deadline means rung 0 regardless of cost.
func (r *Runner) chooseRung(containers int, factor float64) (rung int, modeledMS float64) {
	servers := r.topo.NumServers()
	if r.opts.SolveDeadline <= 0 {
		return RungFull, modeledSolveMS(RungFull, containers, servers, factor)
	}
	budget := r.opts.SolveDeadline.Seconds() * 1000
	for rung = RungFull; rung < RungGreedy; rung++ {
		ms := modeledSolveMS(rung, containers, servers, factor)
		if ms <= budget {
			return rung, ms
		}
	}
	return RungGreedy, modeledSolveMS(RungGreedy, containers, servers, factor)
}

// rungPolicy resolves a ladder rung to a policy. The warm-start rung is
// the incremental scheduler, which repairs the request's carried
// placement: the rung is a pure function of checkpointed state, so a
// crash-resume re-execution reproduces it exactly.
func (r *Runner) rungPolicy(rung int) scheduler.Policy {
	switch rung {
	case RungWarmStart:
		inner := scheduler.Goldilocks{}
		switch p := r.policy.(type) {
		case scheduler.Goldilocks:
			inner = p
		case *scheduler.Goldilocks:
			inner = *p
		}
		return &scheduler.IncrementalGoldilocks{Inner: inner}
	case RungGreedy:
		return scheduler.MPP{}
	default:
		return r.policy
	}
}

// executeMigrations journals the epoch's migration waves and, when a
// retry policy is armed, simulates the transfers with seeded
// retry/backoff. A transfer that exhausts its attempts is resolved
// deterministically: if the source server is alive the container reverts
// to it in res.Placement (the migration simply did not happen); if the
// source is dead the container cold-restarts at the destination (there is
// nothing to go back to). Either way the move counts in the report's
// DroppedMigrations axis — never silently lost.
func (r *Runner) executeMigrations(in EpochInput, carried []int, res *scheduler.Result, espan *telemetry.Span) (retries, dropped int, err error) {
	pol := r.opts.MigrateRetry
	if in.MigrationFlakeProb > 0 {
		pol.FlakeProb = in.MigrationFlakeProb
	}
	armed := pol.FlakeProb > 0 || pol.MaxAttempts > 1
	if !armed && r.opts.Journal == nil {
		return 0, 0, nil // nothing to simulate, nothing to journal
	}

	moves, err := migrate.PlanMoves(in.Spec, carried, res.Placement)
	if err != nil {
		return 0, 0, err
	}
	if len(moves) == 0 {
		return 0, 0, nil
	}
	plan := migrate.Schedule(moves)
	for wi, wave := range plan.Waves {
		if err := r.journalWave(wi, plan, wave); err != nil {
			return 0, 0, err
		}
	}
	if !armed {
		return 0, 0, nil // intent journaled; legacy diff accounting stands
	}

	// Per-epoch seed: the base seed mixed with the epoch number, so each
	// epoch draws a fresh stream but replays bit-identically on resume.
	pol.Seed = det.Mix64(pol.Seed ^ uint64(r.epoch)*0x9E3779B97F4A7C15)
	mopts := migrate.Options{Retry: pol, Trace: espan}
	mrep, err := migrate.Simulate(r.topo, plan, mopts)
	if err != nil {
		return 0, 0, err
	}
	retries = mrep.Retries

	// Stuck transfers (dead links mid-path) get one replan round against
	// the surviving fabric: re-transferable moves re-simulate, dead-source
	// moves restart cold, shed containers are already accounted.
	if len(mrep.StuckMoves) > 0 {
		replanned, _, _, rerr := migrate.Replan(r.topo, plan, mrep.StuckMoves, res.Placement)
		if rerr != nil {
			return retries, 0, rerr
		}
		if len(replanned.Moves) > 0 {
			rrep, rerr := migrate.Simulate(r.topo, replanned, mopts)
			if rerr != nil {
				return retries, 0, rerr
			}
			retries += rrep.Retries
			mrep.ExhaustedMoves = append(mrep.ExhaustedMoves, remapExhausted(plan, replanned, rrep.ExhaustedMoves)...)
		}
	}

	sess := r.opts.Telemetry
	for _, mi := range mrep.ExhaustedMoves {
		m := plan.Moves[mi]
		dropped++
		detail := "transfer exhausted retries; container stays on source"
		if r.topo.ServerFailed(m.From) {
			// Nothing to revert to: the container restarts cold at the
			// destination from its image.
			detail = "transfer exhausted retries; source dead, cold restart at destination"
		} else {
			res.Placement[m.Container] = m.From
		}
		if sess.Auditing() {
			sess.Decide(telemetry.Decision{
				Policy: r.policy.Name(), Container: in.Spec.Containers[m.Container].ID, Group: -1,
				Action: telemetry.ActionMigrationDropped, Server: res.Placement[m.Container], From: m.From,
				Detail: detail,
			})
		}
	}
	sess.Counter("cluster_migration_retries_total").Add(int64(retries))
	sess.Counter("cluster_dropped_migrations_total").Add(int64(dropped))
	return retries, dropped, nil
}

// remapExhausted translates exhausted-move indices of a replanned plan
// back to indices into the original plan's moves (matching by container).
func remapExhausted(orig, replanned *migrate.Plan, exhausted []int) []int {
	byContainer := make(map[int]int, len(orig.Moves))
	for i, m := range orig.Moves {
		byContainer[m.Container] = i
	}
	var out []int
	for _, ri := range exhausted {
		if oi, ok := byContainer[replanned.Moves[ri].Container]; ok {
			out = append(out, oi)
		}
	}
	return out
}

// Epoch returns the next epoch the runner will execute.
func (r *Runner) Epoch() int { return r.epoch }

// ArmCrash schedules a simulated control-plane kill after the next n
// journal appends: the chaos harness translates a scheduler-crash fault
// into a call here, so the crash tears the upcoming epoch at a chosen
// record boundary (n=1 dies right after the epoch-begin intent).
func (r *Runner) ArmCrash(n int) {
	if n > 0 {
		r.crashAfterRecords = r.recordsWritten + n
	}
}

// Snapshot captures the runner's carried state as a journal checkpoint:
// the next epoch to execute, the energy/request accumulators, and the
// carried placement in canonical (ascending container ID) order.
func (r *Runner) Snapshot() journal.RunnerState {
	st := journal.RunnerState{
		Epoch:        r.epoch,
		TotalEnergyJ: r.totalEnergyJ,
		TotalReqs:    r.totalReqs,
	}
	for _, id := range det.SortedKeys(r.prevPlace) {
		st.Place = append(st.Place, journal.Assignment{Container: id, Server: r.prevPlace[id]})
	}
	return st
}

// Restore rewinds the runner to a checkpointed state. Everything RunEpoch
// depends on across epochs lives in the state — the epoch counter, the
// accumulators, the carried placement — so execution after Restore is
// byte-identical to an uninterrupted run reaching the same epoch.
func (r *Runner) Restore(st journal.RunnerState) {
	r.epoch = st.Epoch
	r.totalEnergyJ = st.TotalEnergyJ
	r.totalReqs = st.TotalReqs
	r.prevPlace = make(map[int]int, len(st.Place))
	for _, a := range st.Place {
		r.prevPlace[a.Container] = a.Server
	}
}
