package vc

import (
	"errors"
	"reflect"
	"testing"

	"goldilocks/internal/power"
	"goldilocks/internal/resources"
	"goldilocks/internal/topology"
)

func fatTree4(t *testing.T) *topology.Topology {
	t.Helper()
	cfg := topology.Config{
		ServerCapacity: resources.New(1000, 10000, 1000),
		ServerModel:    power.Dell2018,
		ServerLinkMbps: 1000,
	}
	tp, err := topology.NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// mkGroup builds a group of n identical containers starting at container
// index base.
func mkGroup(id, base, n int, demand resources.Vector, totalMbps, interMbps float64) Group {
	g := Group{ID: id}
	for i := 0; i < n; i++ {
		g.Containers = append(g.Containers, base+i)
		g.Demands = append(g.Demands, demand)
		g.TotalMbps = append(g.TotalMbps, totalMbps)
		g.InterMbps = append(g.InterMbps, interMbps)
	}
	return g
}

func TestPlaceSingleGroupInOneRack(t *testing.T) {
	tp := fatTree4(t)
	// 2 containers of 300 CPU each fit one rack's two servers at 70%
	// (each server holds one: 300 ≤ 700).
	g := mkGroup(0, 0, 2, resources.New(300, 100, 50), 50, 10)
	pl, err := Place(tp, 2, []Group{g}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := pl.ServerOf[0], pl.ServerOf[1]
	if s0 < 0 || s1 < 0 {
		t.Fatal("containers unplaced")
	}
	// Both must land in the left-most rack (servers 0 and 1).
	if tp.HopDistance(s0, s1) > 2 {
		t.Fatalf("group split across racks: servers %d, %d", s0, s1)
	}
}

func TestPlaceRespectsTargetUtil(t *testing.T) {
	tp := fatTree4(t)
	// Each server: 1000 CPU; at 70% one server holds at most 700.
	// 4 containers of 400 CPU → 2 racks worth (one per server pair).
	g := mkGroup(0, 0, 4, resources.New(400, 10, 10), 10, 0)
	pl, err := Place(tp, 4, []Group{g}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[int]float64)
	for _, s := range pl.ServerOf {
		used[s] += 400
	}
	for s, u := range used {
		if u > 700 {
			t.Fatalf("server %d loaded to %v CPU, above the 70%% knee", s, u)
		}
	}
}

func TestPlaceFallsBackToLargerSubtree(t *testing.T) {
	tp := fatTree4(t)
	// 6 containers of 500 CPU: each server holds one (500 ≤ 700), a rack
	// holds 2, so the group needs a pod (4) — no: 6 > 4 → needs root.
	g := mkGroup(0, 0, 6, resources.New(500, 10, 10), 10, 0)
	pl, err := Place(tp, 6, []Group{g}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	servers := make(map[int]bool)
	for _, s := range pl.ServerOf {
		if s < 0 {
			t.Fatal("unplaced container")
		}
		servers[s] = true
	}
	if len(servers) != 6 {
		t.Fatalf("used %d servers, want 6", len(servers))
	}
}

func TestPlaceHeterogeneousServers(t *testing.T) {
	tp := fatTree4(t)
	// Shrink server 0 so the big container must skip it.
	tp.Capacity[0] = resources.New(100, 10000, 1000)
	g := mkGroup(0, 0, 1, resources.New(600, 10, 10), 10, 0)
	pl, err := Place(tp, 1, []Group{g}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if pl.ServerOf[0] == 0 {
		t.Fatal("container placed on a server too small for it")
	}
}

func TestPlaceBandwidthReservation(t *testing.T) {
	tp := fatTree4(t)
	g := mkGroup(0, 0, 2, resources.New(300, 10, 10), 400, 100)
	pl, err := Place(tp, 2, []Group{g}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Reserved) != len(tp.Nodes()) {
		t.Fatalf("reservation table has %d entries, want one per node (%d)", len(pl.Reserved), len(tp.Nodes()))
	}
	// Both containers fit one server (600 ≤ 700 CPU), so every boundary
	// around them only carries the inter-group traffic:
	// R = min(ΣB inside = 800, intra-out 0 + inter 200) = 200.
	if pl.ServerOf[0] != pl.ServerOf[1] {
		t.Fatalf("expected co-location, got servers %d and %d", pl.ServerOf[0], pl.ServerOf[1])
	}
	server := tp.ServerNode[pl.ServerOf[0]]
	if got := pl.Reserved[server.ID]; got != 200 {
		t.Fatalf("NIC reservation = %v, want 200 (Eq. 4 min)", got)
	}
	if got := pl.Reserved[server.Parent.ID]; got != 200 {
		t.Fatalf("rack uplink reservation = %v, want 200 (inter-group only)", got)
	}
}

func TestPlaceAvoidsBandwidthStarvedRack(t *testing.T) {
	tp := fatTree4(t)
	// Kill rack 0's uplink: a group with inter-group traffic cannot
	// reserve there and must move to rack 1.
	rack0 := tp.SubtreesAtLevel(topology.LevelRack)[0]
	if err := tp.FailUplinkFraction(rack0, 1.0); err != nil {
		t.Fatal(err)
	}
	g := mkGroup(0, 0, 2, resources.New(300, 10, 10), 100, 50)
	pl, err := Place(tp, 2, []Group{g}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pl.ServerOf {
		for _, inRack0 := range rack0.ServerIDs {
			if s == inRack0 {
				t.Fatalf("container placed in bandwidth-dead rack (server %d)", s)
			}
		}
	}
}

func TestPlaceSequentialGroupsShareResidual(t *testing.T) {
	tp := fatTree4(t)
	// Two groups that each fit a rack: they must land on different
	// servers without overcommitting anything.
	g1 := mkGroup(0, 0, 2, resources.New(600, 10, 10), 100, 20)
	g2 := mkGroup(1, 2, 2, resources.New(600, 10, 10), 100, 20)
	pl, err := Place(tp, 4, []Group{g1, g2}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for _, s := range pl.ServerOf {
		seen[s]++
	}
	for s, n := range seen {
		if n > 1 {
			t.Fatalf("server %d hosts %d containers of 600 CPU (cap 700)", s, n)
		}
	}

	// Bandwidth: rack 0's uplink is degraded to 1000 Mbps. Each group is
	// one 400-CPU container whose whole 600 Mbps is inter-group traffic,
	// so its Eq. 4/5 reservation on the rack uplink is 600: either group
	// fits rack 0 alone (and CPU would let the second take server 1), but
	// both together would need 1200. The second group must move to
	// another rack.
	tp = fatTree4(t)
	rack0 := tp.SubtreesAtLevel(topology.LevelRack)[0]
	if err := tp.FailUplinkFraction(rack0, 0.5); err != nil {
		t.Fatal(err)
	}
	b1 := mkGroup(0, 0, 1, resources.New(400, 10, 10), 600, 600)
	b2 := mkGroup(1, 1, 1, resources.New(400, 10, 10), 600, 600)
	pl, err = Place(tp, 2, []Group{b1, b2}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if got := tp.ServerNode[pl.ServerOf[0]].Parent; got != rack0 {
		t.Fatalf("first group landed under node %d, want rack 0 (node %d)", got.ID, rack0.ID)
	}
	if got := tp.ServerNode[pl.ServerOf[1]].Parent; got == rack0 {
		t.Fatalf("second group shares rack 0 (server %d) past its uplink residual", pl.ServerOf[1])
	}
	if got := pl.Reserved[rack0.ID]; got != 600 {
		t.Fatalf("rack 0 uplink reserves %v Mbps, want 600", got)
	}
}

func TestPlaceUnplaceable(t *testing.T) {
	tp := fatTree4(t)
	// One container bigger than any server at 70%.
	g := mkGroup(0, 0, 1, resources.New(900, 10, 10), 10, 0)
	_, err := Place(tp, 1, []Group{g}, 0.7)
	if !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("err = %v, want ErrUnplaceable", err)
	}
}

func TestPlaceReleasesOnFailure(t *testing.T) {
	tp := fatTree4(t)
	g1 := mkGroup(0, 0, 1, resources.New(500, 10, 10), 300, 50)
	gBad := mkGroup(1, 1, 1, resources.New(900, 10, 10), 10, 0)
	_, err := Place(tp, 2, []Group{g1, gBad}, 0.7)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !reflect.DeepEqual(tp, fatTree4(t)) {
		t.Fatal("a failed Place changed the topology")
	}
}

func TestPlaceValidation(t *testing.T) {
	tp := fatTree4(t)
	if _, err := Place(tp, 1, nil, 0); err == nil {
		t.Fatal("target 0 must be rejected")
	}
	bad := Group{ID: 0, Containers: []int{0}, Demands: nil, TotalMbps: []float64{1}, InterMbps: []float64{0}}
	if _, err := Place(tp, 1, []Group{bad}, 0.7); err == nil {
		t.Fatal("inconsistent group must be rejected")
	}
	oob := mkGroup(0, 5, 1, resources.New(1, 1, 1), 1, 0)
	if _, err := Place(tp, 2, []Group{oob}, 0.7); err == nil {
		t.Fatal("out-of-range container index must be rejected")
	}
}
