package scheduler

import (
	"reflect"
	"testing"

	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// countMoves diffs two placements of the same spec by container ID.
func countMoves(spec *workload.Spec, a, b []int) int {
	byID := make(map[int]int, len(a))
	for i, s := range a {
		byID[spec.Containers[i].ID] = s
	}
	moves := 0
	for i, s := range b {
		if prev, ok := byID[spec.Containers[i].ID]; ok && prev != s {
			moves++
		}
	}
	return moves
}

// carry maps a placement of prev onto spec's containers by ID, the way the
// cluster runner carries a placement into the next epoch (−1 for
// arrivals).
func carry(prev *workload.Spec, placement []int, spec *workload.Spec) []int {
	byID := make(map[int]int, len(placement))
	for i, s := range placement {
		byID[prev.Containers[i].ID] = s
	}
	out := make([]int, len(spec.Containers))
	for i, c := range spec.Containers {
		out[i] = -1
		if s, ok := byID[c.ID]; ok {
			out[i] = s
		}
	}
	return out
}

func TestIncrementalStableWorkloadZeroMigrations(t *testing.T) {
	topo := topology.NewTestbed()
	spec := workload.TwitterWorkload(120, 1)
	p := &IncrementalGoldilocks{}
	first, err := p.Place(Request{Spec: spec, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Place(Request{Spec: spec, Topo: topo, Carried: first.Placement})
	if err != nil {
		t.Fatal(err)
	}
	if moves := countMoves(spec, first.Placement, second.Placement); moves != 0 {
		t.Fatalf("stable workload migrated %d containers", moves)
	}
}

func TestIncrementalRespectsBudgetOnMildChange(t *testing.T) {
	topo := topology.NewTestbed()
	base := workload.TwitterWorkload(120, 1)
	p := &IncrementalGoldilocks{MigrationBudget: 0.10}
	first, err := p.Place(Request{Spec: base, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	// Mild load change: +15% CPU/network.
	bumped := base.Scaled(1.15)
	second, err := p.Place(Request{Spec: bumped, Topo: topo, Carried: first.Placement})
	if err != nil {
		t.Fatal(err)
	}
	moves := countMoves(bumped, first.Placement, second.Placement)
	budget := int(0.10*120) + 1
	if moves > budget {
		t.Fatalf("moved %d containers, budget %d", moves, budget)
	}
	// And the repaired placement still honors the knee.
	checkUtilizationCaps(t, Request{Spec: bumped, Topo: topo}, second, 0.70)
}

func TestIncrementalPlacesArrivalsNearPartners(t *testing.T) {
	topo := topology.NewTestbed()
	base := workload.TwitterWorkload(60, 2)
	p := &IncrementalGoldilocks{}
	first, err := p.Place(Request{Spec: base, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	// Add one cache container chatting heavily with container 0.
	grown := &workload.Spec{
		Containers: append(append([]workload.Container{}, base.Containers...), workload.Container{
			ID: 1000, App: workload.TwitterCaching, Demand: workload.TwitterCaching.Demand,
		}),
		Flows: append(append([]workload.Flow{}, base.Flows...), workload.Flow{A: 0, B: 60, Count: 5000}),
	}
	res, err := p.Place(Request{Spec: grown, Topo: topo, Carried: carry(base, first.Placement, grown)})
	if err != nil {
		t.Fatal(err)
	}
	// The newcomer should land on (or adjacent to) its partner's server.
	if hops := topo.HopDistance(res.Placement[60], res.Placement[0]); hops > 2 {
		t.Fatalf("arrival placed %d hops from its partner", hops)
	}
}

func TestIncrementalHandlesDepartures(t *testing.T) {
	topo := topology.NewTestbed()
	p := &IncrementalGoldilocks{}
	big := workload.TwitterWorkload(120, 3)
	first, err := p.Place(Request{Spec: big, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	small := workload.TwitterWorkload(80, 3)
	res, err := p.Place(Request{Spec: small, Topo: topo, Carried: carry(big, first.Placement, small)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placement) != 80 {
		t.Fatalf("placement length %d", len(res.Placement))
	}
	checkPlacementComplete(t, Request{Spec: small, Topo: topo}, res)
}

func TestIncrementalFallsBackWhenBudgetInsufficient(t *testing.T) {
	topo := topology.NewTestbed()
	p := &IncrementalGoldilocks{MigrationBudget: 0.01} // one move allowed
	base := workload.TwitterWorkload(120, 4)
	first, err := p.Place(Request{Spec: base, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	// Triple the load: wholesale reshuffle needed; the fallback must
	// produce a feasible placement regardless of budget.
	tripled := base.Scaled(3.0)
	res, err := p.Place(Request{Spec: tripled, Topo: topo, Carried: first.Placement})
	if err != nil {
		t.Fatal(err)
	}
	checkUtilizationCaps(t, Request{Spec: tripled, Topo: topo}, res, 0.70)
}

func TestIncrementalFarFewerMigrationsThanFresh(t *testing.T) {
	// The point of the extension (§IV-C): across a drifting load, the
	// incremental scheduler moves far fewer containers than fresh
	// partitioning, at comparable packing.
	topo := topology.NewTestbed()
	base := workload.TwitterWorkload(120, 5)
	incr := &IncrementalGoldilocks{MigrationBudget: 0.10}
	fresh := Goldilocks{}

	factors := []float64{1.0, 1.05, 0.95, 1.1, 1.0, 0.9, 1.05}
	var prevIncr, prevFresh []int
	incrMoves, freshMoves := 0, 0
	for _, f := range factors {
		spec := base.Scaled(f)
		ri, err := incr.Place(Request{Spec: spec, Topo: topo, Carried: prevIncr})
		if err != nil {
			t.Fatal(err)
		}
		rf, err := fresh.Place(Request{Spec: spec, Topo: topo})
		if err != nil {
			t.Fatal(err)
		}
		if prevIncr != nil {
			incrMoves += countMoves(spec, prevIncr, ri.Placement)
			freshMoves += countMoves(spec, prevFresh, rf.Placement)
		}
		prevIncr, prevFresh = ri.Placement, rf.Placement
	}
	if incrMoves*2 >= freshMoves && freshMoves > 0 {
		t.Fatalf("incremental moved %d vs fresh %d: want at most half", incrMoves, freshMoves)
	}
}

func TestIncrementalName(t *testing.T) {
	if (&IncrementalGoldilocks{}).Name() != "Goldilocks-incremental" {
		t.Fatal("name changed")
	}
}

func TestIncrementalNothingCarriedRepartitions(t *testing.T) {
	topo := topology.NewTestbed()
	spec := workload.TwitterWorkload(120, 6)
	fresh, err := Goldilocks{}.Place(Request{Spec: spec, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	// Every carried container departed: only arrivals remain.
	none := make([]int, len(spec.Containers))
	for i := range none {
		none[i] = -1
	}
	for _, carried := range [][]int{nil, none} {
		res, err := (&IncrementalGoldilocks{}).Place(Request{Spec: spec, Topo: topo, Carried: carried})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Placement, fresh.Placement) {
			t.Fatalf("carried %v: placement differs from a full repartition", carried)
		}
	}
}

func TestCarriedLengthValidated(t *testing.T) {
	topo := topology.NewTestbed()
	spec := workload.TwitterWorkload(8, 1)
	for _, p := range append(allPolicies(), &IncrementalGoldilocks{}) {
		if _, err := p.Place(Request{Spec: spec, Topo: topo, Carried: make([]int, 7)}); err == nil {
			t.Errorf("%s accepted a carried placement shorter than the spec", p.Name())
		}
	}
}
