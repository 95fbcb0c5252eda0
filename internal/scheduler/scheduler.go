// Package scheduler implements the container placement policies the paper
// evaluates (§VI): the Goldilocks graph-partition policy and the four
// published alternatives it is compared against — E-PVM (least-utilized,
// all servers on), mPP (first-fit decreasing onto the least power-slope
// server, packed to 95%), Borg (stranded-resource-minimizing packing, 95%)
// and RC-Informed (bucket placement on *reserved* resources with 125% CPU
// oversubscription).
//
// Every policy consumes a Request (the workload spec plus the topology)
// and produces a Placement: container index → server id. Only Goldilocks
// looks at the container graph; the baselines place containers one at a
// time, which is precisely the difference the paper studies.
package scheduler

import (
	"errors"
	"fmt"
	"sort"

	"goldilocks/internal/resources"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// ErrNoCapacity is returned when a container cannot be placed on any
// server without violating the policy's utilization cap.
var ErrNoCapacity = errors.New("scheduler: no server can host container")

// Request is the input of one scheduling epoch.
type Request struct {
	Spec *workload.Spec
	Topo *topology.Topology
	// Carried is the placement the workload ran on last epoch, indexed like
	// Spec.Containers: Carried[i] is container i's server, or −1 when it
	// was not carried (an arrival). Empty means nothing is carried; a
	// server out of range counts as not carried. Only policies that repair
	// instead of repartitioning read it.
	Carried []int
	// Telemetry, when non-nil, receives placement metrics and per-container
	// audit decisions (the "why" records behind goldilocks-sim -explain).
	Telemetry *telemetry.Session
	// Span, when non-nil, is the parent the policy hangs its phase spans
	// under. Both fields may be nil independently; nil costs nothing.
	Span *telemetry.Span
}

// Result is the outcome of one scheduling epoch.
type Result struct {
	// Placement maps container index (into Spec.Containers) to server id.
	Placement []int
	// AllServersOn marks policies (E-PVM) that never power servers down.
	AllServersOn bool
	// TargetUtil is the CPU utilization ceiling the policy actually packed
	// against. For Goldilocks this exposes the degradation ladder: 0.70 at
	// the Peak Energy Efficiency knee, higher when surviving capacity
	// forced a controlled spill toward 0.95 (the cluster runner reports it
	// as EpochReport.SpillTarget and the cubic DVFS penalty follows).
	TargetUtil float64
}

// ActiveServers returns which servers host at least one container (every
// server when AllServersOn).
func (r Result) ActiveServers(numServers int) []bool {
	active := make([]bool, numServers)
	if r.AllServersOn {
		for i := range active {
			active[i] = true
		}
		return active
	}
	for _, s := range r.Placement {
		if s >= 0 && s < numServers {
			active[s] = true
		}
	}
	return active
}

// NumActive counts active servers.
func (r Result) NumActive(numServers int) int {
	n := 0
	for _, a := range r.ActiveServers(numServers) {
		if a {
			n++
		}
	}
	return n
}

// Policy is a container placement algorithm.
type Policy interface {
	// Name identifies the policy in reports ("Goldilocks", "Borg", ...).
	Name() string
	// Place computes a placement for the request. Implementations must
	// not retain or mutate the request.
	Place(req Request) (Result, error)
}

// validate rejects malformed requests before any policy logic runs.
func validate(req Request) error {
	if req.Spec == nil || req.Topo == nil {
		return errors.New("scheduler: nil spec or topology")
	}
	if req.Topo.NumServers() == 0 && req.Spec.NumContainers() > 0 {
		return fmt.Errorf("scheduler: %d containers but no servers", req.Spec.NumContainers())
	}
	if n := len(req.Carried); n != 0 && n != req.Spec.NumContainers() {
		return fmt.Errorf("scheduler: carried placement covers %d containers, spec has %d", n, req.Spec.NumContainers())
	}
	return nil
}

// auditPlaced records one "placed" audit decision per container, with the
// PEE headroom left at its server (the CPU ceiling minus the server's
// final CPU utilization). groupOf maps container → partition group id, or
// is nil for the group-free baseline policies. No-op without an auditing
// session.
func auditPlaced(req Request, policy string, placement []int, target float64, groupOf []int) {
	if !req.Telemetry.Auditing() {
		return
	}
	loads := make([]resources.Vector, req.Topo.NumServers())
	for i, s := range placement {
		if s >= 0 {
			loads[s] = loads[s].Add(req.Spec.Containers[i].Demand)
		}
	}
	for i, s := range placement {
		if s < 0 {
			continue
		}
		group := -1
		if groupOf != nil {
			group = groupOf[i]
		}
		cpuUtil := 0.0
		if cap := req.Topo.Capacity[s][resources.CPU]; cap > 0 {
			cpuUtil = loads[s][resources.CPU] / cap
		}
		req.Telemetry.Decide(telemetry.Decision{
			Policy: policy, Container: req.Spec.Containers[i].ID, Group: group,
			Action: telemetry.ActionPlaced, Server: s, From: -1,
			Headroom: target - cpuUtil,
			Detail:   fmt.Sprintf("server CPU util %.3f of %.2f ceiling", cpuUtil, target),
		})
	}
	req.Telemetry.Counter("scheduler_containers_placed_total").Add(int64(len(placement)))
}

// demandOrder returns container indices sorted by descending dominant
// normalized demand — the First Fit Decreasing order mPP and Borg use.
func demandOrder(spec *workload.Spec, ref resources.Vector) []int {
	type kv struct {
		idx int
		key float64
	}
	items := make([]kv, len(spec.Containers))
	for i, c := range spec.Containers {
		items[i] = kv{idx: i, key: c.Demand.Normalize(ref).Sum()}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].key > items[b].key })
	order := make([]int, len(items))
	for i, it := range items {
		order[i] = it.idx
	}
	return order
}
