package scheduler

import (
	"math"
	"sort"

	"goldilocks/internal/det"
	"goldilocks/internal/graph"
	"goldilocks/internal/resources"
	"goldilocks/internal/topology"
)

// IncrementalGoldilocks implements the §IV-C migration-cost extension the
// paper defers to future work: instead of repartitioning from scratch
// every epoch (which may move many containers), it repairs the carried
// placement (Request.Carried) — placing arrivals next to their
// communication partners, evicting the cheapest containers from servers
// pushed over the Peak Energy Efficiency target, and spending at most a
// migration budget per epoch. When nothing is carried, or the budget
// cannot restore feasibility, it falls back to a full repartition (and the
// epoch pays the migration bill).
type IncrementalGoldilocks struct {
	// Inner provides the full-partition fallback and the packing target.
	Inner Goldilocks
	// MigrationBudget is the maximum fraction of carried containers that
	// may move per epoch (default 0.15, minimum one container).
	MigrationBudget float64
}

// Name implements Policy.
func (*IncrementalGoldilocks) Name() string { return "Goldilocks-incremental" }

// Place implements Policy.
func (p *IncrementalGoldilocks) Place(req Request) (Result, error) {
	if err := validate(req); err != nil {
		return Result{}, err
	}
	span := req.Span.Child("goldilocks-incremental")
	defer span.End()
	target := p.Inner.TargetUtil
	if target <= 0 {
		target = 0.70
	}
	budgetFrac := p.MigrationBudget
	if budgetFrac <= 0 {
		budgetFrac = 0.15
	}

	numServers := req.Topo.NumServers()
	n := req.Spec.NumContainers()
	placement := make([]int, n)
	loads := make([]resources.Vector, numServers)
	carried := 0
	for i, c := range req.Spec.Containers {
		placement[i] = -1
		if len(req.Carried) == 0 {
			continue
		}
		if s := req.Carried[i]; s >= 0 && s < numServers {
			placement[i] = s
			loads[s] = loads[s].Add(c.Demand)
			carried++
		}
	}
	// Nothing carried over (the first epoch): full partition.
	if carried == 0 {
		return p.Inner.Place(req)
	}
	g := req.Spec.Graph()
	usable := usableCapacities(req.Topo.Capacity, target)

	budget := int(math.Ceil(budgetFrac * float64(carried)))
	if budget < 1 {
		budget = 1
	}

	// Arrivals: place each new container on the feasible server with the
	// strongest affinity (sum of edge weights to containers already
	// there); ties break toward the least-loaded server. Arrivals are
	// fresh starts, not migrations.
	arrivals := 0
	for i := range placement {
		if placement[i] >= 0 {
			continue
		}
		s := p.bestServer(req, g, placement, loads, usable, i, -1)
		if s < 0 {
			return p.Inner.Place(req)
		}
		placement[i] = s
		loads[s] = loads[s].Add(req.Spec.Containers[i].Demand)
		arrivals++
	}

	// Repair: evict from overloaded servers, cheapest-affinity first, and
	// empty failed servers entirely (a container that demands nothing
	// still fits a failed server's zeroed capacity).
	moved := 0
	for s := 0; s < numServers; s++ {
		failed := req.Topo.ServerFailed(s)
		for {
			fits := loads[s].Fits(usable[s])
			if fits && !failed {
				break
			}
			victim := p.pickVictim(req, g, placement, s)
			if fits && victim < 0 {
				break // a failed server, now empty
			}
			if victim < 0 || moved >= budget {
				return p.Inner.Place(req)
			}
			dst := p.bestServer(req, g, placement, loads, usable, victim, s)
			if dst < 0 {
				return p.Inner.Place(req)
			}
			d := req.Spec.Containers[victim].Demand
			loads[s] = loads[s].Sub(d)
			loads[dst] = loads[dst].Add(d)
			placement[victim] = dst
			moved++
		}
	}

	// Consolidation: when load dropped, drain the lightest servers into
	// the rest (within budget) so they can power off — without this the
	// incremental scheduler would ratchet up to its peak server set and
	// stay there, forfeiting the power savings.
	moved += p.consolidate(req, g, placement, loads, usable, budget-moved)

	// Improvement: spend leftover budget on strong-gain affinity moves
	// (containers whose communication partners mostly live elsewhere).
	// Only worthwhile when something actually changed — a stable epoch
	// must not churn containers for marginal gains.
	if moved < budget && (arrivals > 0 || moved > 0) {
		moved += p.improve(req, g, placement, loads, usable, budget-moved)
	}

	repairAntiAffinity(req, placement, target, topology.LevelServer, p.Name())
	auditPlaced(req, p.Name(), placement, target, nil)
	return Result{Placement: placement, TargetUtil: target}, nil
}

// affinity returns the sum of (signed) edge weights between container v
// and the containers currently placed on server s.
func affinity(req Request, g *graph.Graph, placement []int, v, s int) float64 {
	total := 0.0
	for _, e := range g.Neighbors(v) {
		if placement[e.To] == s {
			total += e.Weight
		}
	}
	return total
}

// bestServer picks the feasible server with the highest affinity for v,
// excluding `exclude`; ties break toward lower load.
func (p *IncrementalGoldilocks) bestServer(req Request, g *graph.Graph, placement []int, loads, usable []resources.Vector, v, exclude int) int {
	d := req.Spec.Containers[v].Demand
	best, bestAff, bestLoad := -1, math.Inf(-1), math.Inf(1)
	for s := range loads {
		if s == exclude || req.Topo.ServerFailed(s) {
			continue
		}
		if !loads[s].Add(d).Fits(usable[s]) {
			continue
		}
		aff := affinity(req, g, placement, v, s)
		load := loads[s].MaxUtilization(req.Topo.Capacity[s])
		if aff > bestAff || (aff == bestAff && load < bestLoad) {
			best, bestAff, bestLoad = s, aff, load
		}
	}
	return best
}

// pickVictim chooses the container on server s whose local affinity is
// weakest relative to its demand — the cheapest eviction.
func (p *IncrementalGoldilocks) pickVictim(req Request, g *graph.Graph, placement []int, s int) int {
	victim, bestScore := -1, math.Inf(1)
	ref := req.Topo.AverageCapacity()
	for i := range placement {
		if placement[i] != s {
			continue
		}
		size := req.Spec.Containers[i].Demand.Normalize(ref).Sum()
		if size <= 0 {
			size = 1e-9
		}
		score := affinity(req, g, placement, i, s) / size
		if score < bestScore {
			victim, bestScore = i, score
		}
	}
	return victim
}

// consolidate drains whole servers (lightest first) into the remaining
// active set so they can power off, spending at most `budget` moves. A
// server is drained only if *all* its containers can relocate feasibly —
// partial drains save no power.
func (p *IncrementalGoldilocks) consolidate(req Request, g *graph.Graph, placement []int, loads, usable []resources.Vector, budget int) int {
	moved := 0
	for {
		// Lightest non-empty server by container count, then by load.
		count := make(map[int]int)
		for _, s := range placement {
			count[s]++
		}
		// Sorted server order makes the lightest-server tie-break (equal
		// count, equal utilization) reproducible: the lowest server id
		// wins instead of whichever key the map yields first.
		victim, victimCount := -1, 0
		for _, s := range det.SortedKeys(count) {
			c := count[s]
			if victim < 0 || c < victimCount ||
				(c == victimCount && loads[s].MaxUtilization(req.Topo.Capacity[s]) < loads[victim].MaxUtilization(req.Topo.Capacity[victim])) {
				victim, victimCount = s, c
			}
		}
		if victim < 0 || victimCount > budget-moved || len(count) <= 1 {
			return moved
		}
		// Tentatively relocate every container off the victim.
		type mv struct{ v, dst int }
		var batch []mv
		tentLoads := append([]resources.Vector(nil), loads...)
		tentPlace := append([]int(nil), placement...)
		ok := true
		for v := range placement {
			if tentPlace[v] != victim {
				continue
			}
			d := req.Spec.Containers[v].Demand
			dst := -1
			bestAff := 0.0
			for s := range tentLoads {
				if s == victim || count[s] == 0 {
					continue // only already-active servers: draining must shrink the set
				}
				if !tentLoads[s].Add(d).Fits(usable[s]) {
					continue
				}
				aff := affinity(req, g, tentPlace, v, s)
				if dst < 0 || aff > bestAff {
					dst, bestAff = s, aff
				}
			}
			if dst < 0 {
				ok = false
				break
			}
			tentLoads[dst] = tentLoads[dst].Add(d)
			tentLoads[victim] = tentLoads[victim].Sub(d)
			tentPlace[v] = dst
			batch = append(batch, mv{v: v, dst: dst})
		}
		if !ok {
			return moved // the lightest server cannot drain: heavier ones cannot either
		}
		copy(loads, tentLoads)
		copy(placement, tentPlace)
		moved += len(batch)
	}
}

// improve performs up to `budget` positive-gain moves, strongest gain
// first.
func (p *IncrementalGoldilocks) improve(req Request, g *graph.Graph, placement []int, loads, usable []resources.Vector, budget int) int {
	type cand struct {
		v, dst int
		gain   float64
	}
	var cands []cand
	for v := range placement {
		cur := placement[v]
		dst := p.bestServer(req, g, placement, loads, usable, v, cur)
		if dst < 0 {
			continue
		}
		gain := affinity(req, g, placement, v, dst) - affinity(req, g, placement, v, cur)
		// Demand a substantial relative gain: a migration costs a
		// checkpoint/restore cycle (§V), so marginal wins don't pay.
		if gain > 0.25*g.WeightedDegree(v) {
			cands = append(cands, cand{v: v, dst: dst, gain: gain})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })
	moved := 0
	for _, c := range cands {
		if moved >= budget {
			break
		}
		cur := placement[c.v]
		d := req.Spec.Containers[c.v].Demand
		if !loads[c.dst].Add(d).Fits(usable[c.dst]) {
			continue // an earlier move consumed the slack
		}
		loads[cur] = loads[cur].Sub(d)
		loads[c.dst] = loads[c.dst].Add(d)
		placement[c.v] = c.dst
		moved++
	}
	return moved
}
