package workload

import (
	"testing"
)

// TestPowerLawWorkloadShape checks the generator's structural promises:
// deterministic per seed, mean degree near 2·attach, and a heavy-tailed
// maximum degree (the hub rows the partitioner's hot loops must survive).
func TestPowerLawWorkloadShape(t *testing.T) {
	n := 20000
	s := PowerLawWorkload(n, 7)
	if got := s.NumContainers(); got != n {
		t.Fatalf("containers = %d, want %d", got, n)
	}
	if err := assertPositiveDemand(s); err != nil {
		t.Fatal(err)
	}
	g := s.Graph()
	if g.NumEdges() < 2*n {
		t.Fatalf("edges = %d, want ≥ %d (attach=%d)", g.NumEdges(), 2*n, powerLawAttach)
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	meanDeg := 2 * g.NumEdges() / n
	if maxDeg < 20*meanDeg {
		t.Fatalf("max degree %d vs mean %d: not heavy-tailed", maxDeg, meanDeg)
	}

	again := PowerLawWorkload(n, 7)
	if len(again.Flows) != len(s.Flows) {
		t.Fatalf("flow count differs across identical seeds: %d vs %d", len(again.Flows), len(s.Flows))
	}
	for i := range s.Flows {
		if s.Flows[i] != again.Flows[i] {
			t.Fatalf("flow %d differs across identical seeds: %+v vs %+v", i, s.Flows[i], again.Flows[i])
		}
	}
	other := PowerLawWorkload(n, 8)
	same := len(other.Flows) == len(s.Flows)
	if same {
		diff := 0
		for i := range s.Flows {
			if s.Flows[i] != other.Flows[i] {
				diff++
			}
		}
		if diff == 0 {
			t.Fatal("seeds 7 and 8 produced identical flow lists")
		}
	}
}

// TestMicroserviceWorkloadShape checks tier structure: exact container
// count, replica trios on the store tier, positive demands, and that the
// store hubs actually concentrate degree.
func TestMicroserviceWorkloadShape(t *testing.T) {
	n := 20000
	s := MicroserviceWorkload(n, 11)
	if got := s.NumContainers(); got != n {
		t.Fatalf("containers = %d, want %d", got, n)
	}
	if err := assertPositiveDemand(s); err != nil {
		t.Fatal(err)
	}
	stores, fronts := 0, 0
	for i := range s.Containers {
		switch s.Containers[i].Role {
		case "store":
			stores++
			if s.Containers[i].ReplicaGroup == "" {
				t.Fatalf("store container %d has no replica group", i)
			}
		case "frontend":
			fronts++
		}
	}
	if stores < 3 || fronts < 2 {
		t.Fatalf("tier sizes: %d stores, %d frontends", stores, fronts)
	}

	g := s.Graph()
	maxStoreDeg, maxOther := 0, 0
	for i := range s.Containers {
		d := g.Degree(i)
		if s.Containers[i].Role == "store" {
			if d > maxStoreDeg {
				maxStoreDeg = d
			}
		} else if d > maxOther {
			maxOther = d
		}
	}
	if maxStoreDeg <= maxOther {
		t.Fatalf("store hub degree %d not above service degree %d", maxStoreDeg, maxOther)
	}

	again := MicroserviceWorkload(n, 11)
	if len(again.Flows) != len(s.Flows) {
		t.Fatalf("flow count differs across identical seeds")
	}
	for i := range s.Flows {
		if s.Flows[i] != again.Flows[i] {
			t.Fatalf("flow %d differs across identical seeds", i)
		}
	}
}

// TestHubWorkloadSkew: the adversarial generator must put a large fraction
// of all edges on the hub rows.
func TestHubWorkloadSkew(t *testing.T) {
	n, hubs := 10000, 4
	s := HubWorkload(n, hubs, 3)
	g := s.Graph()
	hubEdges := 0
	for h := 0; h < hubs; h++ {
		hubEdges += g.Degree(h)
	}
	if frac := float64(hubEdges) / float64(2*g.NumEdges()); frac < 0.4 {
		t.Fatalf("hub rows hold %.0f%% of edge endpoints, want ≥ 40%%", 100*frac)
	}
}
