// Failure-recovery epoch loop: the cluster runner's response to chaos.
//
// The chaos injector mutates the shared topology between epochs; this file
// is the other half of the contract. Each epoch the runner (1) diffs the
// carried placement against the surviving servers to find displaced
// containers and service units that lost every carried member, (2) lets
// the policy re-place on the surviving asymmetric topology — Goldilocks
// walks its spill ladder from the 70% PEE knee toward 95%, paying the
// cubic DVFS penalty (EpochReport.SpillTarget makes the rung visible) —
// (3) sheds load through deterministic admission control only when even
// the top rung cannot fit the workload, and (4) accounts availability,
// recovery time, recovery migrations, displaced and rejected demand as
// first-class epoch metrics. Replica anti-affinity pays off here: a unit
// with one surviving member fails over and stays available; units that
// were co-located onto one fault domain lose the whole recovery window.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"goldilocks/internal/det"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/workload"
)

// failureSnapshot captures, before re-placement, how the failures that
// struck since the previous epoch displaced the carried workload.
type failureSnapshot struct {
	failedServers   int
	displaced       []int // container indices, ascending
	displacedDemand resources.Vector
	// survivor marks units with at least one carried member on a live
	// server; carried marks units that had any carried member at all.
	survivor map[string]bool
	carried  map[string]bool
}

// unitKey groups containers into service units: the replica group when one
// is declared, the container itself otherwise.
func unitKey(c workload.Container) string {
	if c.ReplicaGroup != "" {
		return "group:" + c.ReplicaGroup
	}
	return "solo:" + c.String()
}

// snapshotFailures classifies the carried placement against the current
// (possibly failed) topology.
func (r *Runner) snapshotFailures(spec *workload.Spec, carried []int) failureSnapshot {
	snap := failureSnapshot{
		failedServers: r.topo.NumFailedServers(),
		survivor:      make(map[string]bool),
		carried:       make(map[string]bool),
	}
	for i, c := range spec.Containers {
		prev := carried[i]
		if prev < 0 {
			continue
		}
		key := unitKey(c)
		snap.carried[key] = true
		if r.topo.ServerFailed(prev) {
			snap.displaced = append(snap.displaced, i)
			snap.displacedDemand = snap.displacedDemand.Add(c.Demand)
			if r.opts.Telemetry.Auditing() {
				r.opts.Telemetry.Decide(telemetry.Decision{
					Policy: r.policy.Name(), Container: c.ID, Group: -1,
					Action: telemetry.ActionDisplaced, Server: -1, From: prev,
					Detail: fmt.Sprintf("server %d failed under the carried placement", prev),
				})
			}
		} else {
			snap.survivor[key] = true
		}
	}
	return snap
}

// placeWithAdmissionControl runs the policy and, on capacity exhaustion,
// walks the bottom rung of the degradation ladder: shed containers in a
// deterministic priority order (non-replicated first, then largest
// dominant demand, then lowest ID) in growing batches until the remainder
// fits. Shed containers get placement −1. The empty workload always
// places, so exhaustion of the ladder is impossible; non-capacity errors
// propagate. Every attempt repairs from the same carried placement.
func (r *Runner) placeWithAdmissionControl(spec *workload.Spec, carried []int, pol scheduler.Policy, span *telemetry.Span) (scheduler.Result, []int, error) {
	sess := r.opts.Telemetry
	res, err := pol.Place(scheduler.Request{Spec: spec, Topo: r.topo, Carried: carried, Telemetry: sess, Span: span})
	if err == nil {
		return res, nil, nil
	}
	if !errors.Is(err, scheduler.ErrNoCapacity) {
		return scheduler.Result{}, nil, err
	}
	order := shedOrder(spec, r.topo.AverageCapacity())
	n := len(order)

	// tryShed drops the first k containers of the order and re-places the
	// remainder; ok distinguishes capacity misses from real errors.
	type attempt struct {
		res      scheduler.Result
		rejected []int
	}
	tryShed := func(k int) (attempt, bool, error) {
		sspan := span.Child("shed-attempt")
		sspan.SetInt("shed", k)
		drop := make([]bool, n)
		for _, i := range order[:k] {
			drop[i] = true
		}
		sub, kept := subSpec(spec, drop)
		subCarried := make([]int, len(kept))
		for ki, oi := range kept {
			subCarried[ki] = carried[oi]
		}
		subRes, err := pol.Place(scheduler.Request{Spec: sub, Topo: r.topo, Carried: subCarried, Telemetry: sess, Span: sspan})
		if err != nil {
			if errors.Is(err, scheduler.ErrNoCapacity) {
				sspan.SetStr("outcome", "no-fit")
				sspan.End()
				return attempt{}, false, nil
			}
			sspan.SetStr("error", err.Error())
			sspan.End()
			return attempt{}, false, err
		}
		sspan.SetStr("outcome", "placed")
		sspan.End()
		placement := make([]int, n)
		for i := range placement {
			placement[i] = -1
		}
		for ki, oi := range kept {
			placement[oi] = subRes.Placement[ki]
		}
		rejected := append([]int(nil), order[:k]...)
		sort.Ints(rejected)
		return attempt{
			res: scheduler.Result{
				Placement:    placement,
				AllServersOn: subRes.AllServersOn,
				TargetUtil:   subRes.TargetUtil,
			},
			rejected: rejected,
		}, true, nil
	}

	// Exponential probe for a feasible shed count, then binary search down
	// to the smallest one: rejecting more than the surviving capacity
	// demands would turn admission control into an outage of its own.
	lo := 0 // the unshedded attempt above already failed
	k := (n + 19) / 20
	if k < 1 {
		k = 1
	}
	best := attempt{}
	hi := -1
	for hi < 0 {
		if k > n {
			k = n
		}
		att, ok, err := tryShed(k)
		if err != nil {
			return scheduler.Result{}, nil, err
		}
		if ok {
			best, hi = att, k
			break
		}
		lo = k
		if k == n {
			// Shedding everything leaves an empty workload, which every
			// policy accepts — reaching this means the policy rejects the
			// empty spec, which no amount of shedding fixes.
			return scheduler.Result{}, nil, fmt.Errorf("cluster: %w even after shedding all %d containers", scheduler.ErrNoCapacity, n)
		}
		k *= 2
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		att, ok, err := tryShed(mid)
		if err != nil {
			return scheduler.Result{}, nil, err
		}
		if ok {
			best, hi = att, mid
		} else {
			lo = mid
		}
	}
	if sess.Auditing() {
		for rank, i := range best.rejected {
			c := spec.Containers[i]
			sess.Decide(telemetry.Decision{
				Policy: r.policy.Name(), Container: c.ID, Group: -1,
				Action: telemetry.ActionShed, Server: -1, From: -1,
				Detail: fmt.Sprintf("admission control shed %d of %d containers; this one ranked %d in the shed order", len(best.rejected), n, rank),
			})
		}
	}
	return best.res, best.rejected, nil
}

// shedOrder ranks containers by shedding priority. Replicated services are
// the ones the failure model protects, so non-replicated containers go
// first; within a class, shedding the largest dominant demand frees the
// most capacity per kill; container ID breaks ties so the order is a pure
// function of the spec.
func shedOrder(spec *workload.Spec, ref resources.Vector) []int {
	order := make([]int, len(spec.Containers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := spec.Containers[order[a]], spec.Containers[order[b]]
		ra, rb := ca.ReplicaGroup != "", cb.ReplicaGroup != ""
		if ra != rb {
			return !ra
		}
		ka, kb := ca.Demand.Normalize(ref).Sum(), cb.Demand.Normalize(ref).Sum()
		if ka != kb {
			return ka > kb
		}
		return ca.ID < cb.ID
	})
	return order
}

// subSpec copies the spec minus the dropped containers, remapping flow
// endpoints; kept maps sub-spec index → original index.
func subSpec(spec *workload.Spec, drop []bool) (*workload.Spec, []int) {
	sub := &workload.Spec{}
	var kept []int
	newIdx := make([]int, len(spec.Containers))
	for i, c := range spec.Containers {
		if drop[i] {
			newIdx[i] = -1
			continue
		}
		newIdx[i] = len(sub.Containers)
		sub.Containers = append(sub.Containers, c)
		kept = append(kept, i)
	}
	for _, f := range spec.Flows {
		a, b := newIdx[f.A], newIdx[f.B]
		if a < 0 || b < 0 {
			continue
		}
		sub.Flows = append(sub.Flows, workload.Flow{A: a, B: b, Count: f.Count})
	}
	return sub, kept
}

// accountRecovery fills the failure axes of the epoch report from the
// pre-placement snapshot and the re-placement outcome.
func (r *Runner) accountRecovery(rep *EpochReport, spec *workload.Spec, res scheduler.Result, snap failureSnapshot, rejected []int) {
	rep.SpillTarget = res.TargetUtil
	rep.FailedServers = snap.failedServers
	rep.DisplacedContainers = len(snap.displaced)
	rep.DisplacedDemand = snap.displacedDemand
	rep.AdmissionRejected = len(rejected)

	for _, i := range rejected {
		rep.RejectedDemand = rep.RejectedDemand.Add(spec.Containers[i].Demand)
	}

	// Recovery time: every displaced container restarts from its image
	// (pulled from a surviving replica or the registry), so the transfer
	// is bounded by the destination NIC. Pulls to one destination
	// serialize; destinations proceed in parallel, so the recovery window
	// is the slowest destination. The running max over per-destination
	// partial sums equals the max over totals, keeping the computation
	// independent of map iteration order.
	perDest := make(map[int]float64)
	maxS := 0.0
	for _, i := range snap.displaced {
		s := res.Placement[i]
		if s < 0 {
			continue
		}
		rep.RecoveryMigrations++
		mbps := r.topo.ServerNode[s].Uplink.CapacityMbps
		if mbps <= 0 {
			mbps = 1 // a cut NIC makes the pull crawl, not divide by zero
		}
		perDest[s] += spec.Containers[i].Demand[resources.Memory] * 8 / mbps
		if perDest[s] > maxS {
			maxS = perDest[s]
		}
		if r.opts.Telemetry.Auditing() {
			r.opts.Telemetry.Decide(telemetry.Decision{
				Policy: r.policy.Name(), Container: spec.Containers[i].ID, Group: -1,
				Action: telemetry.ActionRecovered, Server: s, From: -1,
				Detail: fmt.Sprintf("image pull bounded by destination NIC: %.2f s queued at server %d", perDest[s], s),
			})
		}
	}
	rep.RecoveryTimeS = maxS

	// Availability: service-unit-weighted uptime over the epoch. Units
	// with a carried survivor fail over instantly at epoch grain; units
	// that lost every carried member are down for the recovery window if
	// re-placed, the whole epoch if not; brand-new units only lose time
	// when admission control rejects them outright.
	type unitState struct {
		placed  int
		members int
	}
	units := make(map[string]*unitState)
	for i, c := range spec.Containers {
		key := unitKey(c)
		u := units[key]
		if u == nil {
			u = &unitState{}
			units[key] = u
		}
		u.members++
		if res.Placement[i] >= 0 {
			u.placed++
		}
	}
	epochS := r.opts.EpochLength.Seconds()
	downtime := 0.0
	down := 0
	for _, key := range det.SortedKeys(units) {
		u := units[key]
		if snap.survivor[key] {
			continue
		}
		switch {
		case snap.carried[key]:
			down++
			if u.placed > 0 {
				downtime += math.Min(maxS, epochS)
			} else {
				downtime += epochS
			}
		case u.placed == 0:
			downtime += epochS // rejected on arrival: never came up
		}
	}
	rep.GroupsDown = down
	rep.Availability = 1
	if len(units) > 0 && epochS > 0 {
		rep.Availability = 1 - downtime/(epochS*float64(len(units)))
	}
}
