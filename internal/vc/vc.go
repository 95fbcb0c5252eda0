// Package vc implements the paper's asymmetric-topology placement (§IV):
// each container group becomes a Virtual Cluster (the Oktopus abstraction)
// whose containers hang off one virtual switch. A group is placed on the
// smallest left-most subtree whose heterogeneous servers can absorb its
// members and whose outbound links can absorb the bandwidth reservation of
// Eqs. 4–5:
//
//	R = min(Σ_{q∈inside} B_q,  Σ_{r∈intra-outside} B_r + Σ_{s∈inter} B_s)
//
// — the reservation on a boundary never exceeds the total bandwidth of the
// containers inside it, nor the total traffic that actually wants to cross
// it (intra-group traffic to members placed outside plus, conservatively,
// all inter-group traffic).
package vc

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"goldilocks/internal/resources"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
)

// ErrUnplaceable is returned when a group fits no subtree, even the root.
var ErrUnplaceable = errors.New("vc: group cannot be placed")

// Group is one Virtual Cluster: a set of containers with their demands and
// bandwidth requirements. TotalMbps[i] is B_i, the container's total
// traffic (intra + inter); InterMbps[i] is the share of B_i destined to
// other groups.
type Group struct {
	ID         int
	Containers []int
	Demands    []resources.Vector
	TotalMbps  []float64
	InterMbps  []float64
}

// totalBandwidth returns ΣB_i over the group.
func (g Group) totalBandwidth() float64 {
	s := 0.0
	for _, b := range g.TotalMbps {
		s += b
	}
	return s
}

// interBandwidth returns the Σ over members of inter-group traffic.
func (g Group) interBandwidth() float64 {
	s := 0.0
	for _, b := range g.InterMbps {
		s += b
	}
	return s
}

// Placement is the result of Place. Place writes nothing into the
// topology, so a Placement holds no topology state and needs no release.
type Placement struct {
	// ServerOf maps global container index → server id (-1 if the index
	// was not part of any group).
	ServerOf []int
	// Reserved[id] is the bandwidth reserved on the uplink of the node
	// with that ID (the builders number nodes densely from 0), summed over
	// the groups placed. Each group's subtree search sees the uplink
	// capacity less the reservations of the groups placed before it.
	Reserved []float64
}

// Place assigns every group to servers of the (possibly asymmetric,
// heterogeneous) topology. Groups are processed in order; each lands on
// the smallest left-most subtree that satisfies both server-side resources
// (per-server utilization ≤ targetUtil) and outbound-bandwidth
// reservations on every boundary it spans. numContainers sizes the
// returned ServerOf slice.
func Place(topo *topology.Topology, numContainers int, groups []Group, targetUtil float64) (*Placement, error) {
	return PlaceT(topo, numContainers, groups, targetUtil, "", nil, nil)
}

// PlaceT is Place with telemetry: the VC subtree search hangs a span per
// group under parent, and every candidate subtree the walk rejects — a
// member that fits no server, or an Eq. 4/5 boundary whose residual cannot
// absorb the reservation — lands in the session's audit log under policy,
// joined to the group's containers by group id. sess and parent may be
// nil independently.
func PlaceT(topo *topology.Topology, numContainers int, groups []Group, targetUtil float64, policy string, sess *telemetry.Session, parent *telemetry.Span) (*Placement, error) {
	if targetUtil <= 0 || targetUtil > 1 {
		return nil, fmt.Errorf("vc: target utilization %v outside (0, 1]", targetUtil)
	}
	span := parent.Child("vc-place")
	span.SetInt("groups", len(groups))
	defer span.End()
	pl := &Placement{
		ServerOf: make([]int, numContainers),
		Reserved: make([]float64, len(topo.Nodes())),
	}
	for i := range pl.ServerOf {
		pl.ServerOf[i] = -1
	}
	used := make([]resources.Vector, topo.NumServers())

	// Candidate subtrees smallest-first, left-most within a level: racks,
	// pods, then the root.
	candidates := topo.SubtreesAtLevel(topology.LevelRack)
	candidates = append(candidates, topo.SubtreesAtLevel(topology.LevelPod)...)
	candidates = append(candidates, topo.Root)

	ref := topo.AverageCapacity()
	explain := sess.Auditing()
	for _, g := range groups {
		if err := validateGroup(g, numContainers); err != nil {
			return nil, err
		}
		gspan := span.Child("group")
		gspan.SetInt("group", g.ID)
		gspan.SetInt("containers", len(g.Containers))
		gspan.SetFloat("bandwidth_mbps", g.totalBandwidth())
		// Members in decreasing normalized demand: first-fit decreasing
		// tries them in this order under every candidate subtree.
		order := make([]int, len(g.Containers))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return g.Demands[order[a]].Normalize(ref).Sum() > g.Demands[order[b]].Normalize(ref).Sum()
		})
		var rejected []telemetry.Candidate
		placed := false
		for _, sub := range candidates {
			ok, reason := tryPlaceGroup(topo, sub, g, order, targetUtil, used, pl, explain)
			if ok {
				if explain {
					sess.Decide(telemetry.Decision{
						Policy: policy, Container: -1, Group: g.ID,
						Action: telemetry.ActionGroupPlaced, Server: -1, From: -1,
						Detail:     fmt.Sprintf("placed under %s (%d containers, %.0f Mbps)", nodeName(sub), len(g.Containers), g.totalBandwidth()),
						Candidates: rejected,
					})
				}
				gspan.SetStr("subtree", nodeName(sub))
				placed = true
				break
			}
			if explain {
				rejected = append(rejected, telemetry.Candidate{Subtree: nodeName(sub), Outcome: reason})
			}
		}
		gspan.End()
		if !placed {
			if explain {
				sess.Decide(telemetry.Decision{
					Policy: policy, Container: -1, Group: g.ID,
					Action: telemetry.ActionGroupRejected, Server: -1, From: -1,
					Detail:     "no subtree can host the group",
					Candidates: rejected,
				})
			}
			return nil, fmt.Errorf("%w: group %d (%d containers, %v Mbps)",
				ErrUnplaceable, g.ID, len(g.Containers), g.totalBandwidth())
		}
	}
	return pl, nil
}

// nodeName renders a topology node for audit records, e.g. "rack-3".
func nodeName(n *topology.Node) string {
	return fmt.Sprintf("%s-%d", n.Level, n.ID)
}

func validateGroup(g Group, numContainers int) error {
	if len(g.Demands) != len(g.Containers) || len(g.TotalMbps) != len(g.Containers) ||
		len(g.InterMbps) != len(g.Containers) {
		return fmt.Errorf("vc: group %d has inconsistent slice lengths", g.ID)
	}
	for _, c := range g.Containers {
		if c < 0 || c >= numContainers {
			return fmt.Errorf("vc: group %d references container %d outside [0, %d)", g.ID, c, numContainers)
		}
	}
	return nil
}

// tryPlaceGroup attempts to place the whole group under subtree `sub`,
// trying its members in `order`. On success it commits server loads and
// bandwidth reservations into used and pl and returns true; on failure it
// leaves both untouched. When explain is set, a failure also returns the
// audit reason (which server fit or Eq. 4/5 residual check failed);
// otherwise the reason is "".
func tryPlaceGroup(topo *topology.Topology, sub *topology.Node, g Group, order []int, targetUtil float64, used []resources.Vector, pl *Placement, explain bool) (bool, string) {
	// Phase 1: fit containers onto servers (first-fit decreasing over the
	// subtree's servers that are up, which are already in left-most order).
	ceil := resources.UtilizationCaps(targetUtil)
	// Member→server assignment is dense (every member gets a server or the
	// whole attempt fails), so a slice keeps later commit loops ordered by
	// member index instead of map order.
	assignment := make([]int, len(g.Containers))
	tentative := make(map[int]resources.Vector) // server → extra load
	for _, m := range order {
		placedOn := -1
		for _, s := range sub.ServerIDs {
			if topo.ServerFailed(s) {
				continue // a zero demand fits the zeroed capacity
			}
			load := used[s].Add(tentative[s]).Add(g.Demands[m])
			if load.Fits(topo.Capacity[s].PerDimScale(ceil)) {
				placedOn = s
				break
			}
		}
		if placedOn < 0 {
			if explain {
				return false, fmt.Sprintf("member %d (demand %v) fits none of the %d servers at %.0f%% ceiling",
					g.Containers[m], g.Demands[m], len(sub.ServerIDs), targetUtil*100)
			}
			return false, ""
		}
		assignment[m] = placedOn
		tentative[placedOn] = tentative[placedOn].Add(g.Demands[m])
	}

	// Phase 2: bandwidth reservations on every boundary the group spans.
	// For each node under (and including) sub whose subtree contains some
	// group members, reserve Eq. 4/5's R on its uplink.
	reservations, fail := computeReservations(topo, sub, g, assignment, pl.Reserved)
	if fail != nil {
		if explain {
			return false, fmt.Sprintf("Eq. 4/5 reservation %.0f Mbps exceeds residual %.0f Mbps on uplink of %s",
				fail.need, fail.residual, nodeName(fail.node))
		}
		return false, ""
	}

	// Commit.
	for s, extra := range tentative {
		used[s] = used[s].Add(extra)
	}
	for m, s := range assignment {
		pl.ServerOf[g.Containers[m]] = s
	}
	for _, r := range reservations {
		pl.Reserved[r.node.ID] += r.mbps
	}
	return true, ""
}

// reservation is one boundary's Eq. 4/5 bandwidth for a group.
type reservation struct {
	node *topology.Node
	mbps float64
}

// resFailure identifies the boundary whose residual bandwidth could not
// absorb the group's Eq. 4/5 reservation.
type resFailure struct {
	node     *topology.Node
	need     float64
	residual float64
}

// computeReservations derives the per-uplink reservation for the group
// given its member→server assignment, checking each against the uplink's
// residual: its capacity less reserved[node ID]. It covers the uplink of
// sub itself and of every descendant subtree that holds a strict subset of
// the group (rack boundaries when the group spans racks inside a pod, and
// the server NIC links).
func computeReservations(topo *topology.Topology, sub *topology.Node, g Group, assignment []int, reserved []float64) ([]reservation, *resFailure) {
	totalB := g.totalBandwidth()
	interB := g.interBandwidth()

	// Aggregate member bandwidth per node on the path from each member's
	// server up to (and including) sub. `order` records first-seen node
	// order — a deterministic walk of the deterministic assignment — so the
	// boundary check below visits nodes reproducibly and the *first*
	// failing boundary reported to the audit log is always the same one.
	insideB := make(map[*topology.Node]float64)
	var order []*topology.Node
	for m, server := range assignment {
		n := topo.ServerNode[server]
		for {
			if _, seen := insideB[n]; !seen {
				order = append(order, n)
			}
			insideB[n] += g.TotalMbps[m]
			if n == sub {
				break
			}
			n = n.Parent
		}
	}

	res := make([]reservation, 0, len(order))
	for _, n := range order {
		if n.Uplink == nil {
			continue // root: no outbound boundary
		}
		inB := insideB[n]
		// Traffic wanting to cross this boundary: intra-group traffic to
		// members outside n, plus (conservatively, Eq. 5) the whole
		// inter-group traffic.
		outB := (totalB - inB) + interB
		r := math.Min(inB, outB)
		if r <= 0 {
			continue
		}
		residual := math.Max(0, n.Uplink.CapacityMbps-reserved[n.ID])
		if r > residual+1e-9 {
			return nil, &resFailure{node: n, need: r, residual: residual}
		}
		res = append(res, reservation{node: n, mbps: r})
	}
	return res, nil
}
