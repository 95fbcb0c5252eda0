package scheduler

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"

	"goldilocks/internal/det"
	"goldilocks/internal/resources"
	"goldilocks/internal/workload"
)

// usableCapacities precomputes each server's capacity scaled by the
// per-dimension ceilings: the cap applies to CPU and network, memory is
// bounded by its physical size only (resident sets have no power knee).
func usableCapacities(caps []resources.Vector, cpuNetCap float64) []resources.Vector {
	ceil := resources.UtilizationCaps(cpuNetCap)
	out := make([]resources.Vector, len(caps))
	for i, c := range caps {
		out[i] = c.PerDimScale(ceil)
	}
	return out
}

// EPVM is the opportunity-cost baseline [17]: every container lands on the
// currently least-utilized server, and no server is ever powered off. It
// spreads load thin — worst power, generous headroom. A lazily-refreshed
// min-heap on utilization keeps placement O(n log s) for the large-scale
// simulation.
type EPVM struct{}

// Name implements Policy.
func (EPVM) Name() string { return "E-PVM" }

// utilHeap is a min-heap of (utilization, server) with lazy invalidation.
type utilHeapItem struct {
	server int
	util   float64
	stamp  uint64
}

type utilHeap []utilHeapItem

func (h utilHeap) Len() int            { return len(h) }
func (h utilHeap) Less(i, j int) bool  { return h[i].util < h[j].util }
func (h utilHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *utilHeap) Push(x interface{}) { *h = append(*h, x.(utilHeapItem)) }
func (h *utilHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Place implements Policy.
func (EPVM) Place(req Request) (Result, error) {
	if err := validate(req); err != nil {
		return Result{}, err
	}
	span := req.Span.Child("e-pvm")
	defer span.End()
	req.Telemetry.Counter("scheduler_place_total").Inc()
	numServers := req.Topo.NumServers()
	used := make([]resources.Vector, numServers)
	usable := usableCapacities(req.Topo.Capacity, 1.0)
	placement := make([]int, req.Spec.NumContainers())

	stamps := make([]uint64, numServers)
	h := make(utilHeap, 0, numServers)
	for s := 0; s < numServers; s++ {
		h = append(h, utilHeapItem{server: s, util: 0})
	}
	heap.Init(&h)

	for i, c := range req.Spec.Containers {
		var skipped []utilHeapItem
		best := -1
		for h.Len() > 0 {
			it := heap.Pop(&h).(utilHeapItem)
			if it.stamp != stamps[it.server] {
				continue // stale
			}
			if req.Topo.ServerFailed(it.server) || !used[it.server].Add(c.Demand).Fits(usable[it.server]) {
				skipped = append(skipped, it)
				continue
			}
			best = it.server
			break
		}
		// Servers that could not fit this container may fit the next.
		for _, it := range skipped {
			heap.Push(&h, it)
		}
		if best < 0 {
			return Result{}, fmt.Errorf("%w: container %d (%v)", ErrNoCapacity, i, c.Demand)
		}
		placement[i] = best
		used[best] = used[best].Add(c.Demand)
		stamps[best]++
		heap.Push(&h, utilHeapItem{
			server: best,
			util:   used[best].MaxUtilization(req.Topo.Capacity[best]),
			stamp:  stamps[best],
		})
	}
	auditPlaced(req, EPVM{}.Name(), placement, 1.0, nil)
	return Result{Placement: placement, AllServersOn: true, TargetUtil: 1.0}, nil
}

// packer tracks which servers a packing policy needs to examine for each
// container: every currently-active server plus, per distinct capacity
// class, the lowest-id still-empty server (all empty servers of one class
// are interchangeable). On a homogeneous 5488-server topology this cuts
// each placement step from O(servers) to O(active).
type packer struct {
	used       []resources.Vector // running allocation per server
	active     []int
	emptyQueue map[resources.Vector][]int // ascending server ids per class
	classes    []resources.Vector         // stable iteration order
	scratch    []int
}

func newPacker(capacities []resources.Vector) *packer {
	p := &packer{used: make([]resources.Vector, len(capacities)), emptyQueue: make(map[resources.Vector][]int)}
	for s, c := range capacities {
		if _, ok := p.emptyQueue[c]; !ok {
			p.classes = append(p.classes, c)
		}
		p.emptyQueue[c] = append(p.emptyQueue[c], s)
	}
	// Canonical class order (ascending lexicographic), not first-seen
	// order: candidate iteration — and therefore every tie-break among
	// equally-scored empty servers — must depend on the capacity classes
	// present, never on how the topology happened to order its servers.
	sort.Slice(p.classes, func(i, j int) bool {
		a, b := p.classes[i], p.classes[j]
		for d := range a {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
	return p
}

// candidates returns the servers worth considering for the next container.
// The returned slice is reused across calls.
func (p *packer) candidates() []int {
	p.scratch = append(p.scratch[:0], p.active...)
	for _, c := range p.classes {
		if q := p.emptyQueue[c]; len(q) > 0 {
			p.scratch = append(p.scratch, q[0])
		}
	}
	return p.scratch
}

// place commits a container to a server, activating it if it was empty.
func (p *packer) place(server int, d resources.Vector) {
	if p.used[server].IsZero() {
		p.active = append(p.active, server)
		for _, c := range p.classes {
			q := p.emptyQueue[c]
			if len(q) > 0 && q[0] == server {
				p.emptyQueue[c] = q[1:]
				break
			}
		}
	}
	p.used[server] = p.used[server].Add(d)
}

// The paper's baseline settings (§VI): mPP and Borg pack CPU and network
// to 95%, and RC-Informed oversubscribes reserved CPU to 125%.
const (
	packCap            = 0.95
	rcOversubscription = 1.25
)

// packGreedy is the one packing loop behind mPP, Borg and RC-Informed. It
// takes the containers in order and charges each (charge: its demand or
// its reservation) to one packer candidate that is up and still fits it
// under usable[s]. The first such candidate wins unless a later one has a
// strictly lower rank, compared as (tier, key); rank sees the server's
// load before the charge. ceiling is the utilization ceiling the result
// reports.
func packGreedy(req Request, name string, order []int, charge func(workload.Container) resources.Vector,
	usable []resources.Vector, ceiling float64, rank func(s int, used, d resources.Vector) (tier int, key float64)) (Result, error) {
	span := req.Span.Child(strings.ToLower(name))
	defer span.End()
	req.Telemetry.Counter("scheduler_place_total").Inc()
	pk := newPacker(req.Topo.Capacity)
	placement := make([]int, req.Spec.NumContainers())
	for _, i := range order {
		d := charge(req.Spec.Containers[i])
		best, bestTier, bestKey := -1, 0, 0.0
		for _, s := range pk.candidates() {
			if req.Topo.ServerFailed(s) || !pk.used[s].Add(d).Fits(usable[s]) {
				continue
			}
			tier, key := rank(s, pk.used[s], d)
			if best < 0 || tier < bestTier || (tier == bestTier && key < bestKey) {
				best, bestTier, bestKey = s, tier, key
			}
		}
		if best < 0 {
			return Result{}, fmt.Errorf("%w: container %d (%v)", ErrNoCapacity, i, d)
		}
		placement[i] = best
		pk.place(best, d)
	}
	auditPlaced(req, name, placement, ceiling, nil)
	return Result{Placement: placement, TargetUtil: ceiling}, nil
}

func demandOf(c workload.Container) resources.Vector { return c.Demand }

// MPP is pMapper's min-power-increase packing [16]: containers are taken
// in First Fit Decreasing order and placed on the feasible server with the
// smallest marginal power per unit of utilization, packing up to 95%.
type MPP struct{}

// Name implements Policy.
func (MPP) Name() string { return "mPP" }

// Place implements Policy.
func (p MPP) Place(req Request) (Result, error) {
	if err := validate(req); err != nil {
		return Result{}, err
	}
	order := demandOrder(req.Spec, req.Topo.AverageCapacity())
	usable := usableCapacities(req.Topo.Capacity, packCap)
	return packGreedy(req, p.Name(), order, demandOf, usable, packCap, func(s int, used, _ resources.Vector) (int, float64) {
		// An already-on server always beats powering a new one on (the
		// new server adds its idle draw); among equals, pick the
		// smallest power slope.
		tier := 0
		if used.IsZero() {
			tier = 1
		}
		return tier, req.Topo.Server[s].MarginalPower(used.MaxUtilization(req.Topo.Capacity[s]))
	})
}

// Borg implements the task-packing score of Google's Borg [14]: among
// feasible servers it minimizes *stranded resources* — the imbalance
// between leftover CPU and leftover memory that makes a machine unusable
// for future tasks — preferring already-busy machines (best fit), packing
// to 95%.
type Borg struct{}

// Name implements Policy.
func (Borg) Name() string { return "Borg" }

// Place implements Policy.
func (p Borg) Place(req Request) (Result, error) {
	if err := validate(req); err != nil {
		return Result{}, err
	}
	order := demandOrder(req.Spec, req.Topo.AverageCapacity())
	usable := usableCapacities(req.Topo.Capacity, packCap)
	return packGreedy(req, p.Name(), order, demandOf, usable, packCap, func(s int, used, d resources.Vector) (int, float64) {
		return 0, borgScore(used.Add(d), req.Topo.Capacity[s], used.IsZero())
	})
}

// borgScore is lower for better placements: it penalizes stranded
// resources (|free CPU − free memory| in normalized terms), rewards high
// fill (best fit keeps machines either full or empty), and strongly
// penalizes waking an empty machine. It is finite on every feasible
// server: a zero capacity admits only a zero demand, whose utilization is 0.
func borgScore(usedAfter, capacity resources.Vector, wasEmpty bool) float64 {
	u := usedAfter.Utilization(capacity)
	freeCPU := 1 - u[resources.CPU]
	freeMem := 1 - u[resources.Memory]
	stranded := math.Abs(freeCPU - freeMem)
	fill := (freeCPU + freeMem) / 2 // lower is fuller
	score := stranded + 0.5*fill
	if wasEmpty {
		score += 10 // powering on a machine strands a whole machine
	}
	return score
}

// RCInformed is Resource Central's bucket policy [15]: placement is driven
// by *reserved* resources (the container's nominal allocation, not its
// live utilization), with the CPU axis oversubscribed to 125%. Buckets are
// filled first-fit; because reservations don't shrink at low load, the
// active server count tracks the container population, not the offered
// load.
type RCInformed struct{}

// Name implements Policy.
func (RCInformed) Name() string { return "RC-Informed" }

// Place implements Policy.
func (p RCInformed) Place(req Request) (Result, error) {
	if err := validate(req); err != nil {
		return Result{}, err
	}
	buckets := make([]resources.Vector, req.Topo.NumServers())
	for s, c := range req.Topo.Capacity {
		buckets[s] = resources.OversubscribedCapacity(c, rcOversubscription)
	}
	// Buckets fill in arrival order, and arrivals interleave across
	// tenants — not in the workload's adjacency order. A deterministic
	// hash shuffle models that (and is what denies bucket policies the
	// locality Goldilocks constructs deliberately).
	order := make([]int, req.Spec.NumContainers())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return idHash(req.Spec.Containers[order[a]].ID) < idHash(req.Spec.Containers[order[b]].ID)
	})
	// Reservations come from what the owner asked for at container
	// creation, not the live demand; the key makes it first fit over the
	// lowest-id bucket with room.
	return packGreedy(req, p.Name(), order, workload.Container.Reservation, buckets, rcOversubscription,
		func(s int, _, _ resources.Vector) (int, float64) { return 0, float64(s) })
}

// idHash derives the deterministic arrival order of RC-Informed's buckets:
// one SplitMix64 step over the container id.
func idHash(id int) uint64 {
	return det.Mix64(uint64(id) + 0x9e3779b97f4a7c15)
}
