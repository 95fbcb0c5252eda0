package scheduler

import (
	"errors"
	"fmt"

	"goldilocks/internal/det"
	"goldilocks/internal/graph"
	"goldilocks/internal/partition"
	"goldilocks/internal/resources"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/vc"
)

// Goldilocks is the paper's policy (§III–IV): recursively bipartition the
// container graph (min-cut keeps chatty containers together) until every
// group fits a server at the Peak Energy Efficiency target, then assign
// groups to the left-most subtrees of the topology so that sibling groups
// share racks and pods. On an asymmetric or heterogeneous topology the
// groups become Virtual Clusters placed with explicit outbound-bandwidth
// reservations (Eqs. 4–5).
type Goldilocks struct {
	// TargetUtil is the packing ceiling; the paper uses the 70% Peak
	// Energy Efficiency point in every experiment. Defaults to 0.70.
	TargetUtil float64
	// Partition tunes the multilevel partitioner; the zero value uses
	// partition.DefaultOptions. Partition.BalanceEps is ignored: Goldilocks
	// always partitions at balanceEps (0.03). Partitioning dominates the
	// epoch's placement latency, so Partition.Parallelism (default
	// GOMAXPROCS) bounds the worker pool the recursive bisection fans out
	// on; results are identical at every parallelism level for a fixed Seed.
	Partition partition.Options
	// FaultDomain is the topology level replicas must not share (§IV-C:
	// "different fault domains" — a ToR or power-supply failure takes
	// out a rack). The zero value defaults to LevelRack; rack-distinct
	// placement implies server-distinct. Set LevelPod for whole-pod
	// fault domains; when there are fewer domains than replicas the
	// repair degrades to distinct servers, best effort.
	FaultDomain topology.Level
}

// balanceEps is the bisection balance Goldilocks partitions at. Tighter
// balance than the partitioner's generic default keeps the ceil-based
// server-budget splits feasible, so the group count stays near the lower
// bound and servers fill close to the knee.
const balanceEps = 0.03

// Name implements Policy.
func (Goldilocks) Name() string { return "Goldilocks" }

// Place implements Policy.
func (p Goldilocks) Place(req Request) (Result, error) {
	if err := validate(req); err != nil {
		return Result{}, err
	}
	target := p.TargetUtil
	if target <= 0 {
		target = 0.70
	}
	if p.Partition == (partition.Options{}) {
		p.Partition = partition.DefaultOptions()
	}
	p.Partition.BalanceEps = balanceEps
	if req.Spec.NumContainers() == 0 {
		return Result{Placement: []int{}, TargetUtil: target}, nil
	}

	g := req.Spec.Graph()
	// When the data center is too loaded to pack at the knee, relax the
	// ceiling toward 95%: the paper observes the same collapse — "with
	// high data center load, the power consumptions ... sometimes are
	// close to baseline" (§VI-A2, Fig. 10).
	targets := []float64{target}
	for t := target + 0.10; t < 0.95; t += 0.10 {
		targets = append(targets, t)
	}
	targets = append(targets, 0.95)

	domain := p.FaultDomain
	if domain == 0 { // zero value is LevelServer; racks are the default
		domain = topology.LevelRack
	}

	span := req.Span.Child("goldilocks")
	defer span.End()
	req.Telemetry.Counter("scheduler_place_total").Inc()

	var firstErr error
	for _, t := range targets {
		attempt := span.Child("attempt")
		attempt.SetFloat("target", t)
		res, groupOf, err := p.placeAtTarget(req, g, t, attempt)
		if err == nil {
			attempt.SetStr("outcome", "placed")
			attempt.End()
			repairAntiAffinity(req, res.Placement, t, domain, p.Name())
			auditPlaced(req, p.Name(), res.Placement, t, groupOf)
			if t > target {
				req.Telemetry.Counter("scheduler_spill_total").Inc()
			}
			req.Telemetry.Gauge("scheduler_spill_target").Set(t)
			res.TargetUtil = t
			return res, nil
		}
		attempt.SetStr("outcome", "no-fit")
		attempt.End()
		// The spill record explains *why* the run left the Peak Energy
		// Efficiency knee: which ceiling failed, and with what error.
		if req.Telemetry.Auditing() {
			req.Telemetry.Decide(telemetry.Decision{
				Policy: p.Name(), Container: -1, Group: -1,
				Action: telemetry.ActionSpill, Server: -1, From: -1,
				Detail: fmt.Sprintf("attempt at %.0f%% ceiling failed: %v", t*100, err),
			})
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return Result{}, firstErr
}

// placeAtTarget runs one partition-and-place attempt at a packing ceiling.
// It also returns the container→group assignment for audit records.
func (p Goldilocks) placeAtTarget(req Request, g *graph.Graph, target float64, span *telemetry.Span) (Result, []int, error) {
	// Partition against the average server capacity scaled by the PEE
	// ceiling (CPU only; memory has no knee). On a homogeneous topology
	// this is exact; on a heterogeneous one it is the §IV-A starting
	// point refined by the Virtual Cluster placement.
	usableAvg := req.Topo.AverageCapacity().PerDimScale(resources.UtilizationCaps(target))
	popts := p.Partition
	popts.Trace = span
	popts.ShardCount = autoShardCount(popts.ShardCount, g.NumVertices(),
		len(req.Topo.SubtreesAtLevel(topology.LevelPod)))
	span.SetInt("shard_count", popts.ShardCount)
	tree, err := partition.PartitionToFit(g, usableAvg, popts)
	if err != nil {
		return Result{}, nil, fmt.Errorf("goldilocks: partitioning failed: %w", err)
	}
	req.Telemetry.Gauge("scheduler_partition_cut").Set(tree.Cut)
	req.Telemetry.Gauge("scheduler_partition_groups").Set(float64(len(tree.Leaves)))
	groupOf := tree.Assignment(g.NumVertices())
	if req.Topo.IsSymmetric() {
		res, err := p.placeSymmetric(req, tree, target, span)
		return res, groupOf, err
	}
	res, err := p.placeAsymmetric(req, g, tree, target, span)
	return res, groupOf, err
}

// autoShardCount decides the partitioner's ShardCount for one placement:
// an explicit setting (including −1 to force the flat pipeline) is passed
// through; otherwise graphs of at least partition.ShardAutoMinN containers
// shard along the topology's pods — the pod count is the natural shard
// count, since groups that land in one shard stay in one pod under
// left-most-subtree packing. Topologies with fewer than two pods (the
// testbed's single pod, degenerate trees) keep the flat pipeline.
func autoShardCount(explicit, numContainers, pods int) int {
	if explicit != 0 {
		return explicit
	}
	if numContainers >= partition.ShardAutoMinN && pods >= 2 {
		return pods
	}
	return 0
}

// repairAntiAffinity relocates replicas that ended up sharing a fault
// domain (possible when tight balance constraints block the min-cut from
// cutting their negative edge): each extra co-located replica moves to the
// least loaded feasible server that is up, in a domain that hosts no
// member of its group. When there are fewer domains than replicas, it
// degrades to distinct servers. Best effort — an infeasible relocation
// leaves the replica in place.
func repairAntiAffinity(req Request, placement []int, target float64, domain topology.Level, policy string) {
	byGroup := make(map[string][]int)
	for i, c := range req.Spec.Containers {
		if c.ReplicaGroup != "" {
			byGroup[c.ReplicaGroup] = append(byGroup[c.ReplicaGroup], i)
		}
	}
	if len(byGroup) == 0 {
		return
	}
	numServers := req.Topo.NumServers()
	loads := make([]resources.Vector, numServers)
	for i, s := range placement {
		if s >= 0 {
			loads[s] = loads[s].Add(req.Spec.Containers[i].Demand)
		}
	}
	ceil := resources.UtilizationCaps(target)

	// domainOf maps a server to its fault-domain id at the given level
	// (the server id itself at LevelServer).
	domainOf := func(server int) int { return server }
	numDomains := numServers
	if domain > topology.LevelServer {
		subtrees := req.Topo.SubtreesAtLevel(domain)
		byServer := make([]int, numServers)
		for di, st := range subtrees {
			for _, s := range st.ServerIDs {
				byServer[s] = di
			}
		}
		domainOf = func(server int) int { return byServer[server] }
		numDomains = len(subtrees)
	}

	// Repairs mutate `loads`, so which server wins a relocation depends on
	// the groups already repaired: iterate groups in sorted-name order to
	// keep the outcome reproducible (maporder contract).
	for _, name := range det.SortedKeys(byGroup) {
		members := byGroup[name]
		// Degrade to server granularity when domains are scarcer than
		// replicas: distinct servers is the strongest satisfiable goal.
		dOf, nD := domainOf, numDomains
		if len(members) > numDomains {
			dOf = func(server int) int { return server }
			nD = numServers
		}
		if len(members) > nD {
			continue // more replicas than servers: nothing to repair toward
		}
		onDomain := make(map[int]bool, len(members))
		var extras []int
		for _, m := range members {
			d := dOf(placement[m])
			if onDomain[d] {
				extras = append(extras, m)
			} else {
				onDomain[d] = true
			}
		}
		for _, m := range extras {
			demand := req.Spec.Containers[m].Demand
			best, bestU := -1, 2.0
			for s := 0; s < numServers; s++ {
				if onDomain[dOf(s)] || s == placement[m] || req.Topo.ServerFailed(s) {
					continue
				}
				if !loads[s].Add(demand).Fits(req.Topo.Capacity[s].PerDimScale(ceil)) {
					continue
				}
				if u := loads[s].MaxUtilization(req.Topo.Capacity[s]); u < bestU {
					best, bestU = s, u
				}
			}
			if best < 0 {
				continue // infeasible: leave in place
			}
			if req.Telemetry.Auditing() {
				req.Telemetry.Decide(telemetry.Decision{
					Policy: policy, Container: req.Spec.Containers[m].ID, Group: -1,
					Action: telemetry.ActionRepairMove, Server: best, From: placement[m],
					Detail: fmt.Sprintf("replica group %q shared a %s fault domain; moved to least-loaded feasible server", name, domain),
				})
			}
			loads[placement[m]] = loads[placement[m]].Sub(demand)
			loads[best] = loads[best].Add(demand)
			placement[m] = best
			onDomain[dOf(best)] = true
		}
	}
}

// placeSymmetric packs leaf groups onto consecutive servers with a
// next-fit scan: servers are numbered in (pod, rack, server) order by the
// builders, so consecutive packing keeps sibling groups in the same rack
// and cousin groups in the same pod — the paper's left-most-subtree
// locality (§III-B, Fig. 6) — while letting small adjacent groups share a
// server up to the Peak Energy Efficiency target.
func (p Goldilocks) placeSymmetric(req Request, tree *partition.Tree, target float64, parent *telemetry.Span) (Result, error) {
	span := parent.Child("pack-symmetric")
	span.SetInt("groups", len(tree.Leaves))
	defer span.End()
	numServers := req.Topo.NumServers()
	placement := make([]int, req.Spec.NumContainers())
	for i := range placement {
		placement[i] = -1
	}
	ceil := resources.UtilizationCaps(target)
	server := 0
	var used resources.Vector
	for gi, leaf := range tree.Leaves {
		for server < numServers {
			usable := req.Topo.Capacity[server].PerDimScale(ceil)
			if used.Add(leaf.Demand).Fits(usable) {
				break
			}
			// Only advance when the current server already holds
			// something; an empty server that still cannot fit the
			// group means the group itself is oversized.
			if used.IsZero() {
				return Result{}, fmt.Errorf("%w: group %d demand %v exceeds a whole server at %.0f%%",
					ErrNoCapacity, gi, leaf.Demand, target*100)
			}
			server++
			used = resources.Vector{}
		}
		if server >= numServers {
			return Result{}, fmt.Errorf("%w: %d groups need more than %d servers",
				ErrNoCapacity, len(tree.Leaves), numServers)
		}
		used = used.Add(leaf.Demand)
		for _, v := range leaf.Vertices {
			placement[v] = server
		}
	}
	span.SetInt("servers_used", server+1)
	return Result{Placement: placement}, nil
}

// placeAsymmetric converts leaf groups into Virtual Clusters — each
// container's total bandwidth is its network demand, its inter-group share
// is derived from the fraction of its (positive) edge weight that crosses
// group boundaries — and delegates to the §IV placement.
func (p Goldilocks) placeAsymmetric(req Request, g *graph.Graph, tree *partition.Tree, target float64, parent *telemetry.Span) (Result, error) {
	part := tree.Assignment(g.NumVertices())
	groups := make([]vc.Group, len(tree.Leaves))
	for li, leaf := range tree.Leaves {
		grp := vc.Group{ID: li, Containers: leaf.Vertices}
		for _, v := range leaf.Vertices {
			demand := req.Spec.Containers[v].Demand
			total := demand[resources.Network]
			grp.Demands = append(grp.Demands, demand)
			grp.TotalMbps = append(grp.TotalMbps, total)
			grp.InterMbps = append(grp.InterMbps, total*interFraction(g, part, v))
		}
		groups[li] = grp
	}
	pl, err := vc.PlaceT(req.Topo, req.Spec.NumContainers(), groups, target, p.Name(), req.Telemetry, parent)
	if err != nil {
		if errors.Is(err, vc.ErrUnplaceable) {
			// A group that fits no subtree of the surviving topology is
			// capacity exhaustion (compute or bandwidth): surface it as
			// ErrNoCapacity so the runner's admission control can shed
			// load instead of aborting the epoch.
			return Result{}, fmt.Errorf("goldilocks: asymmetric placement failed: %w: %w", ErrNoCapacity, err)
		}
		return Result{}, fmt.Errorf("goldilocks: asymmetric placement failed: %w", err)
	}
	// One-shot placement: reservations only matter while choosing; the
	// epoch runner re-places from scratch next epoch.
	defer pl.Release()
	return Result{Placement: pl.ServerOf}, nil
}

// interFraction returns the share of vertex v's positive incident edge
// weight that crosses its group boundary.
func interFraction(g *graph.Graph, part []int, v int) float64 {
	var total, inter float64
	for _, e := range g.Neighbors(v) {
		if e.Weight <= 0 {
			continue
		}
		total += e.Weight
		if part[e.To] != part[v] {
			inter += e.Weight
		}
	}
	if total == 0 {
		return 0
	}
	return inter / total
}
