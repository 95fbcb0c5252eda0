// Package migrate models the container migration machinery of the paper's
// implementation (§V): at each epoch boundary, containers whose assignment
// changed are checkpointed (CRIU writes the process image), their images
// are transferred to the destination servers (rsync over the overlay), and
// they are restored. The package plans the moves between two placements,
// schedules them into waves that never ask one server to source or sink
// two transfers at once (a NIC-saturating rsync leaves no room for a
// second), and simulates the transfer timing over the topology with the
// flow-level network simulator.
//
// The disruption accounting mirrors the costs the paper cites: application
// freeze time (the final dirty-page copy while the container is stopped)
// and total migration traffic.
package migrate

import (
	"fmt"
	"sort"
	"time"

	"goldilocks/internal/netsim"
	"goldilocks/internal/resources"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// Move is one container migration.
type Move struct {
	Container int
	From, To  int
	// ImageMB is the checkpoint image size (the container's resident
	// memory).
	ImageMB float64
}

// The migration model of the testbed: CRIU single-pass checkpoints to a
// local SSD, images moved with rsync over the netsim fabric.
const (
	// dirtyFraction is the share of the image re-copied during the
	// stop-and-copy phase; it determines freeze time. CRIU's single-pass
	// checkpoint freezes for the whole image (1.0); pre-copy live
	// migration gets this down to the dirty working set. rsync pre-syncs
	// the volume, so CRIU re-copies only the hot pages.
	dirtyFraction = 0.15
	// diskMBps is the local checkpoint write/read bandwidth.
	diskMBps = 400
)

// Options sets how Simulate retries and traces transfers; the checkpoint
// and transfer model itself is fixed (see dirtyFraction).
type Options struct {
	// Retry configures seeded transient-failure retries with exponential
	// backoff. The zero value is byte-identical to the legacy
	// single-attempt path.
	Retry RetryPolicy
	// Trace, when non-nil, is the parent span Simulate hangs its per-wave
	// spans under (each wave's netsim run nests beneath it). The pointer
	// keeps Options comparable; nil costs nothing.
	Trace *telemetry.Span
}

// Plan is a set of moves scheduled into waves. Within one wave no server
// appears as source or destination of more than one transfer.
type Plan struct {
	Moves []Move
	// Waves holds indices into Moves.
	Waves [][]int
}

// Report summarizes a simulated plan execution.
type Report struct {
	NumMoves     int
	TotalImageMB float64
	// Duration is the end-to-end wall time of all waves.
	Duration time.Duration
	// TotalFreeze sums the stop-and-copy times of the completed transfers;
	// MaxFreeze is the longest of them.
	TotalFreeze time.Duration
	MaxFreeze   time.Duration
	Waves       int
	// StuckMoves holds the indices into Plan.Moves, ascending, of
	// transfers that could not complete (a failed server or dead link on
	// the path). The caller is expected to Replan them against the
	// surviving topology — they must never be silently dropped.
	StuckMoves []int
	// Retries counts failed transfer attempts across the plan (each one
	// either triggered a backoff-and-retry or, on the last allowed
	// attempt, exhaustion). Zero unless Options.Retry is enabled.
	Retries int
	// ExhaustedMoves holds the indices into Plan.Moves, ascending, of
	// transfers whose every attempt failed. They never enter the network
	// simulation and their images do not count toward TotalImageMB — the
	// caller must account them (the cluster loop reverts the container to
	// its source server and reports it as a dropped migration).
	ExhaustedMoves []int
}

// PlanMoves diffs two placements over the same spec and returns the moves.
// Containers absent from either placement (-1) are skipped: arrivals and
// departures start fresh rather than migrate.
func PlanMoves(spec *workload.Spec, oldPlace, newPlace []int) ([]Move, error) {
	if len(oldPlace) != len(spec.Containers) || len(newPlace) != len(spec.Containers) {
		return nil, fmt.Errorf("migrate: placements cover %d/%d containers, spec has %d",
			len(oldPlace), len(newPlace), len(spec.Containers))
	}
	var moves []Move
	for i := range spec.Containers {
		from, to := oldPlace[i], newPlace[i]
		if from < 0 || to < 0 || from == to {
			continue
		}
		moves = append(moves, Move{
			Container: i,
			From:      from,
			To:        to,
			ImageMB:   spec.Containers[i].Demand[resources.Memory],
		})
	}
	return moves, nil
}

// Schedule packs moves into waves: a greedy maximal matching on servers,
// biggest images first so the long transfers overlap with as many short
// ones as possible.
func Schedule(moves []Move) *Plan {
	order := make([]int, len(moves))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return moves[order[a]].ImageMB > moves[order[b]].ImageMB
	})
	plan := &Plan{Moves: moves}
	scheduled := make([]bool, len(moves))
	remaining := len(moves)
	for remaining > 0 {
		busy := make(map[int]bool)
		var wave []int
		for _, mi := range order {
			if scheduled[mi] {
				continue
			}
			m := moves[mi]
			if busy[m.From] || busy[m.To] {
				continue
			}
			busy[m.From] = true
			busy[m.To] = true
			wave = append(wave, mi)
			scheduled[mi] = true
			remaining--
		}
		plan.Waves = append(plan.Waves, wave)
	}
	return plan
}

// Simulate executes the plan's transfers over the topology with the
// flow-level simulator, wave by wave, and returns the disruption report.
func Simulate(topo *topology.Topology, plan *Plan, opts Options) Report {
	mspan := opts.Trace.Child("migrate")
	mspan.SetInt("moves", len(plan.Moves))
	mspan.SetInt("waves", len(plan.Waves))
	defer mspan.End()
	rep := Report{NumMoves: len(plan.Moves), Waves: len(plan.Waves)}
	var clock time.Duration
	for wi, wave := range plan.Waves {
		wspan := mspan.Child("wave")
		wspan.SetInt("wave", wi)
		wspan.SetInt("transfers", len(wave))
		sim := netsim.New(topo, wspan)
		ids := make(map[netsim.FlowID]int, len(wave))
		waveRetries := 0
		for _, mi := range wave {
			m := plan.Moves[mi]
			// Resolve the retry ladder: failed attempts delay the
			// injection by their accumulated backoff; a transfer that
			// exhausts every attempt never reaches the network.
			start, failed, ok := opts.Retry.planAttempts(m.Container)
			waveRetries += failed
			if !ok {
				rep.ExhaustedMoves = append(rep.ExhaustedMoves, mi)
				continue
			}
			rep.TotalImageMB += m.ImageMB
			id := sim.Inject(start, m.From, m.To, m.ImageMB*1e6)
			ids[id] = mi
		}
		rep.Retries += waveRetries
		done, stuck := sim.Run()
		for _, id := range stuck {
			rep.StuckMoves = append(rep.StuckMoves, ids[id])
		}
		waveEnd := time.Duration(0)
		for _, c := range done {
			mi := ids[c.ID]
			m := plan.Moves[mi]
			// Freeze: checkpoint write + dirty-copy share of the
			// transfer + restore read.
			diskS := 2 * m.ImageMB / diskMBps * dirtyFraction
			freeze := time.Duration(diskS*float64(time.Second)) +
				time.Duration(float64(c.FCT())*dirtyFraction)
			rep.TotalFreeze += freeze
			if freeze > rep.MaxFreeze {
				rep.MaxFreeze = freeze
			}
			if c.Finish > waveEnd {
				waveEnd = c.Finish
			}
		}
		clock += waveEnd
		wspan.SetDuration("wave_duration", waveEnd)
		wspan.SetInt("stuck", len(stuck))
		wspan.SetInt("retries", waveRetries)
		wspan.End()
	}
	rep.Duration = clock
	sort.Ints(rep.StuckMoves)
	sort.Ints(rep.ExhaustedMoves)
	return rep
}

// Replan rebuilds the stuck moves of a plan after mid-transfer failures.
// stuckMoves indexes plan.Moves (Report.StuckMoves from Simulate); newPlace is the fresh placement the policy produced on the
// surviving topology, indexed by container. Each stuck move lands in
// exactly one of the three outcomes — nothing is silently dropped:
//
//   - replanned: source alive, new destination alive and different — the
//     checkpoint image transfers again, now to newPlace[container].
//   - restarts: the source failed (the checkpoint image died with it) or
//     the container is re-placed back onto its surviving source; either
//     way the container restarts in place at its new server with no
//     network transfer. The restart cost is the cluster recovery loop's
//     to account, not a migration.
//   - dropped: newPlace rejects the container (-1, admission control) —
//     returned explicitly so the caller can account the rejection.
//
// A stuck move whose new destination is itself a failed server is a
// contract violation by the caller's policy and returns an error.
func Replan(topo *topology.Topology, plan *Plan, stuckMoves []int, newPlace []int) (replanned *Plan, restarts []Move, dropped []int, err error) {
	var moves []Move
	for _, mi := range stuckMoves {
		if mi < 0 || mi >= len(plan.Moves) {
			return nil, nil, nil, fmt.Errorf("migrate: stuck move index %d out of range [0,%d)", mi, len(plan.Moves))
		}
		m := plan.Moves[mi]
		if m.Container < 0 || m.Container >= len(newPlace) {
			return nil, nil, nil, fmt.Errorf("migrate: container %d not covered by the new placement", m.Container)
		}
		dst := newPlace[m.Container]
		if dst < 0 {
			dropped = append(dropped, m.Container)
			continue
		}
		if topo.ServerFailed(dst) {
			return nil, nil, nil, fmt.Errorf("migrate: replanned destination %d for container %d is a failed server", dst, m.Container)
		}
		if topo.ServerFailed(m.From) || dst == m.From {
			restarts = append(restarts, Move{Container: m.Container, From: m.From, To: dst, ImageMB: m.ImageMB})
			continue
		}
		moves = append(moves, Move{Container: m.Container, From: m.From, To: dst, ImageMB: m.ImageMB})
	}
	sort.Ints(dropped)
	return Schedule(moves), restarts, dropped, nil
}
