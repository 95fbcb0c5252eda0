package workload

// Large-graph workload generators for the 100k–1M-vertex scaling
// experiments (EXPERIMENTS.md). The paper's testbed figures top out at a
// few thousand containers; measuring the partitioner's parallel scaling
// needs container graphs at data-center scale, with the two edge
// distributions that stress it differently:
//
//   - PowerLawWorkload: a preferential-attachment social mesh whose hub
//     vertices collect thousands of neighbors — the worst case for
//     per-vertex work balance (hub rows dominate matching scans,
//     contraction and FM gain updates);
//   - MicroserviceWorkload: a tiered service call-graph with bounded
//     fan-out per service plus a small shared-data-store tier that every
//     deep service leans on — the near-regular case with a few deliberate
//     hubs, shaped like real containerized deployments.
//
// Both are deterministic per (n, seed), build in O(V+E), and emit each
// undirected pair at most once, so Spec.Graph's Builder pass never
// accumulates duplicates from these generators.

import (
	"fmt"
	"math/rand"

	"goldilocks/internal/resources"
)

// powerLawAttach is the preferential-attachment out-degree: each new vertex
// links to this many distinct earlier vertices, giving a mean degree of ~6
// and a heavy-tailed maximum (the 1M-vertex mesh grows hubs past 10⁴).
const powerLawAttach = 3

// PowerLawWorkload builds a seeded power-law social mesh of n containers:
// vertices join one at a time and attach to powerLawAttach distinct earlier
// vertices sampled proportionally to current degree (Barabási–Albert), so
// early vertices become hubs. Demands cycle through the Table II profiles
// with per-container load jitter; flow counts are heavy on the hub side of
// the mesh the way fan-in services are in practice.
func PowerLawWorkload(n int, seed int64) *Spec {
	rng := rand.New(rand.NewSource(seed))
	s := &Spec{Containers: make([]Container, n)}
	for i := 0; i < n; i++ {
		app := TableII[i%len(TableII)]
		d := app.Demand.Scale(0.75 + 0.5*rng.Float64())
		s.Containers[i] = Container{
			ID: i, App: app, Demand: d, Reserved: d.Scale(1.5),
			Role: "mesh",
		}
	}

	m0 := powerLawAttach + 1
	if n <= m0 {
		for v := 1; v < n; v++ {
			s.Flows = append(s.Flows, Flow{A: v - 1, B: v, Count: 8})
		}
		return s
	}

	// reps holds both endpoints of every edge so far: sampling a uniform
	// element is sampling a vertex proportionally to its degree.
	s.Flows = make([]Flow, 0, powerLawAttach*n)
	reps := make([]int32, 0, 2*powerLawAttach*n)
	for i := 0; i < m0; i++ {
		for j := i + 1; j < m0; j++ {
			s.Flows = append(s.Flows, Flow{A: i, B: j, Count: 16})
			reps = append(reps, int32(i), int32(j))
		}
	}
	var picks [powerLawAttach]int32
	for v := m0; v < n; v++ {
		got := 0
		for tries := 0; got < powerLawAttach && tries < 8*powerLawAttach; tries++ {
			t := reps[rng.Intn(len(reps))]
			dup := false
			for _, p := range picks[:got] {
				if p == t {
					dup = true
					break
				}
			}
			if !dup {
				picks[got] = t
				got++
			}
		}
		if got == 0 {
			picks[0] = int32(rng.Intn(v))
			got = 1
		}
		for _, t := range picks[:got] {
			s.Flows = append(s.Flows, Flow{A: v, B: int(t), Count: float64(4 * (1 + rng.Intn(48)))})
			reps = append(reps, int32(v), t)
		}
	}
	return s
}

// MicroserviceWorkload builds a tiered microservice call-graph of n
// containers: a front-end tier fans out into successively wider service
// tiers (each service calls a handful of services one tier down), and the
// deepest services all lean on a small shared data-store tier whose members
// form anti-affinity replica trios. The result is mostly bounded-degree
// with a few heavy store hubs — the shape of real containerized
// deployments, and the microscale counterpart of the power-law mesh.
func MicroserviceWorkload(n int, seed int64) *Spec {
	rng := rand.New(rand.NewSource(seed))
	s := &Spec{Containers: make([]Container, 0, n)}

	// Tier budget: stores ≈ 0.2% (min 3), front-ends ≈ 2% (min 2), then
	// service tiers that double in width until the budget runs out.
	stores := n / 500
	if stores < 3 {
		stores = 3
	}
	fronts := n / 50
	if fronts < 2 {
		fronts = 2
	}
	if stores+fronts > n {
		stores, fronts = 1, n-1
	}
	budget := n - stores - fronts
	var tierSizes []int
	width := 2 * fronts
	for budget > 0 {
		if width > budget {
			width = budget
		}
		tierSizes = append(tierSizes, width)
		budget -= width
		width *= 2
	}

	serviceApps := []AppProfile{WebSearch, SparkMovieRec, Cassandra, NaiveBayes}
	add := func(app AppProfile, role, group string, jitter float64) int {
		id := len(s.Containers)
		d := app.Demand.Scale(jitter)
		s.Containers = append(s.Containers, Container{
			ID: id, App: app, Demand: d, Reserved: d.Scale(1.5),
			Role: role, ReplicaGroup: group,
		})
		return id
	}

	// Tier 0: front-ends.
	tierStart := []int{0}
	for i := 0; i < fronts; i++ {
		add(TwitterCaching, "frontend", "", 0.8+0.4*rng.Float64())
	}
	// Service tiers.
	for t, size := range tierSizes {
		tierStart = append(tierStart, len(s.Containers))
		app := serviceApps[t%len(serviceApps)]
		for i := 0; i < size; i++ {
			add(app, fmt.Sprintf("tier%d", t+1), "", 0.8+0.4*rng.Float64())
		}
	}
	tierStart = append(tierStart, len(s.Containers))
	// Store tier: replica trios with anti-affinity.
	for i := 0; i < stores; i++ {
		add(Cassandra, "store", fmt.Sprintf("store-%d", i/3), 0.9+0.2*rng.Float64())
	}
	storeStart := len(s.Containers) - stores

	// Calls: each service in tier t fans out to 2–4 services in tier t+1.
	// Flow counts shrink with depth (front-end RPCs aggregate many
	// downstream calls).
	nTiers := len(tierStart) - 1 // tier index range [0, nTiers)
	for t := 0; t+1 < nTiers; t++ {
		lo, hi := tierStart[t], tierStart[t+1]
		nlo, nhi := tierStart[t+1], tierStart[t+2]
		width := nhi - nlo
		if width == 0 {
			continue
		}
		base := 256.0 / float64(1+t)
		for v := lo; v < hi; v++ {
			fan := 2 + rng.Intn(3)
			for f := 0; f < fan; f++ {
				to := nlo + rng.Intn(width)
				s.Flows = append(s.Flows, Flow{A: v, B: to, Count: base * (0.5 + rng.Float64())})
			}
		}
	}
	// Deepest service tier (plus a sprinkling of every tier) hits the
	// shared stores — the deliberate hub rows.
	if nTiers >= 1 && stores > 0 {
		lo, hi := tierStart[nTiers-1], tierStart[nTiers]
		for v := lo; v < hi; v++ {
			to := storeStart + rng.Intn(stores)
			s.Flows = append(s.Flows, Flow{A: v, B: to, Count: 24 * (0.5 + rng.Float64())})
		}
	}
	// Store replicas gossip lightly within a trio.
	for i := 0; i+1 < stores; i++ {
		if i%3 != 2 {
			s.Flows = append(s.Flows, Flow{A: storeStart + i, B: storeStart + i + 1, Count: 2})
		}
	}
	return s
}

// HubWorkload is the adversarial hub-skew case for the sharded-mode
// determinism tests: a handful of hub containers each joined to a large
// private fan of leaves plus every other hub, so a single adjacency row
// holds a large fraction of all edges.
func HubWorkload(n, hubs int, seed int64) *Spec {
	rng := rand.New(rand.NewSource(seed))
	if hubs < 1 {
		hubs = 1
	}
	if hubs > n {
		hubs = n
	}
	s := &Spec{Containers: make([]Container, n)}
	for i := 0; i < n; i++ {
		app := MediaStreaming
		role := "leaf"
		if i < hubs {
			app, role = TwitterCaching, "hub"
		}
		d := app.Demand.Scale(0.75 + 0.5*rng.Float64())
		s.Containers[i] = Container{ID: i, App: app, Demand: d, Reserved: d.Scale(1.5), Role: role}
	}
	for i := 0; i < hubs; i++ {
		for j := i + 1; j < hubs; j++ {
			s.Flows = append(s.Flows, Flow{A: i, B: j, Count: 512})
		}
	}
	for v := hubs; v < n; v++ {
		s.Flows = append(s.Flows, Flow{A: v % hubs, B: v, Count: float64(1 + rng.Intn(96))})
	}
	return s
}

// assertPositiveDemand guards the generators in tests: a zero-demand
// container would make balance targets degenerate.
func assertPositiveDemand(s *Spec) error {
	for i := range s.Containers {
		d := s.Containers[i].Demand
		if d[resources.CPU] <= 0 || d[resources.Memory] <= 0 {
			return fmt.Errorf("container %d has non-positive demand %v", i, d)
		}
	}
	return nil
}
