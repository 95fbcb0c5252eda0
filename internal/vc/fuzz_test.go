package vc_test

// go test -fuzz target for the Virtual Cluster placement invariants on
// randomly failed topologies. The fuzzer decodes raw bytes into a 2-level
// leaf-spine fabric (shape, NIC and uplink speeds), a failure pattern
// (crashed servers, degraded rack uplinks) and a group set, then checks
// that vc.Place
//
//  1. never assigns a container to a failed server,
//  2. keeps every server's load within the PEE-scaled capacity,
//  3. reserves on every boundary exactly the Eq. 4/5 terms
//     R = min(Σ_inside B, Σ_outside-intra B + Σ_inter B) — recomputed
//     independently here from the returned assignment — and never more
//     than the link's (possibly degraded) capacity, and
//  4. leaves every uplink's capacity unchanged, whether it fails or
//     succeeds: reservations live in the returned placement only.
//
// Seed corpora live in testdata/fuzz/FuzzVCPlaceAsymmetric/ and run as
// ordinary test cases under plain `go test`; `make fuzz-smoke` gives the
// target a short budget of generated inputs.

import (
	"errors"
	"math"
	"testing"

	"goldilocks/internal/power"
	"goldilocks/internal/resources"
	"goldilocks/internal/topology"
	"goldilocks/internal/vc"
)

// fuzzByteAt reads raw cyclically, so short inputs still describe full
// scenarios and every byte the fuzzer mutates stays meaningful.
func fuzzByteAt(raw []byte, i int) byte {
	if len(raw) == 0 {
		return 0
	}
	return raw[i%len(raw)]
}

// buildFuzzTopology decodes raw into a failed 2-level leaf-spine fabric.
func buildFuzzTopology(t *testing.T, raw []byte) *topology.Topology {
	t.Helper()
	leaves := 2 + int(fuzzByteAt(raw, 0))%4  // 2–5 racks
	perLeaf := 1 + int(fuzzByteAt(raw, 1))%3 // 1–3 servers per rack
	uplink := 50 + 4*float64(fuzzByteAt(raw, 2))
	nic := 50 + 2*float64(fuzzByteAt(raw, 3))
	cfg := topology.Config{
		ServerCapacity: resources.New(100, 100, 100),
		ServerModel:    power.TestbedOpteron,
		ServerLinkMbps: nic,
	}
	tp, err := topology.NewLeafSpine(leaves, perLeaf, 1, uplink, power.TestbedHPE3800, power.TestbedHPE3800, cfg)
	if err != nil {
		t.Fatalf("leaf-spine %d×%d: %v", leaves, perLeaf, err)
	}

	// Crash roughly a quarter of the servers, but keep at least one alive.
	failed := 0
	for s := 0; s < tp.NumServers(); s++ {
		if fuzzByteAt(raw, 4+s)%4 == 0 {
			if err := tp.FailServer(s); err != nil {
				t.Fatal(err)
			}
			failed++
		}
	}
	if failed == tp.NumServers() {
		if err := tp.RecoverServer(0); err != nil {
			t.Fatal(err)
		}
	}
	// Degrade some rack uplinks so the surviving fabric is asymmetric in
	// bandwidth, not just in server capacity.
	for ri, rack := range tp.SubtreesAtLevel(topology.LevelRack) {
		switch fuzzByteAt(raw, 20+ri) % 4 {
		case 1:
			if err := tp.FailUplinkFraction(rack, 0.5); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := tp.FailUplinkFraction(rack, 0.9); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tp
}

// buildFuzzGroups decodes raw into numC containers split into groups whose
// every member fits an undegraded server at any target ≥ 0.5.
func buildFuzzGroups(raw []byte, numC int) []vc.Group {
	var groups []vc.Group
	idx := 0
	for gi := 0; idx < numC; gi++ {
		size := 1 + int(fuzzByteAt(raw, 31+gi))%4
		if idx+size > numC {
			size = numC - idx
		}
		g := vc.Group{ID: gi}
		for k := 0; k < size; k++ {
			c := idx + k
			d := func(j int) float64 { return 1 + float64(fuzzByteAt(raw, 40+3*c+j)%50) }
			total := float64(fuzzByteAt(raw, 90+c) % 40)
			inter := total * float64(fuzzByteAt(raw, 120+c)%101) / 100
			g.Containers = append(g.Containers, c)
			g.Demands = append(g.Demands, resources.New(d(0), d(1), d(2)))
			g.TotalMbps = append(g.TotalMbps, total)
			g.InterMbps = append(g.InterMbps, inter)
		}
		groups = append(groups, g)
		idx += size
	}
	return groups
}

func FuzzVCPlaceAsymmetric(f *testing.F) {
	f.Add([]byte("goldilocks-vc"))
	f.Add([]byte{0x03, 0x02, 0x40, 0x80, 0x04, 0x00, 0x01, 0x02, 0x03, 0x05, 0x08, 0x0d})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	f.Fuzz(func(t *testing.T, raw []byte) {
		tp := buildFuzzTopology(t, raw)
		numC := 1 + int(fuzzByteAt(raw, 30))%12
		groups := buildFuzzGroups(raw, numC)
		target := 0.5 + float64(fuzzByteAt(raw, 130)%50)/100

		nodes := tp.Nodes()
		capacity := make([]float64, len(nodes))
		for i, nd := range nodes {
			if nd.Uplink != nil {
				capacity[i] = nd.Uplink.CapacityMbps
			}
		}
		pl, err := vc.Place(tp, numC, groups, target)
		// Invariant 4: Place, failed or not, writes no uplink.
		for i, nd := range nodes {
			if nd.Uplink != nil && nd.Uplink.CapacityMbps != capacity[i] {
				t.Fatalf("node %d uplink capacity %v Mbps changed to %v by Place",
					nd.ID, capacity[i], nd.Uplink.CapacityMbps)
			}
		}
		if err != nil {
			if !errors.Is(err, vc.ErrUnplaceable) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}

		// Invariants 1–2: everyone placed on a live server within capacity.
		loads := make([]resources.Vector, tp.NumServers())
		for _, g := range groups {
			for m, c := range g.Containers {
				s := pl.ServerOf[c]
				if s < 0 || s >= tp.NumServers() {
					t.Fatalf("container %d unplaced (server %d)", c, s)
				}
				if tp.ServerFailed(s) {
					t.Fatalf("container %d placed on failed server %d", c, s)
				}
				loads[s] = loads[s].Add(g.Demands[m])
			}
		}
		ceil := resources.UtilizationCaps(target)
		for s, load := range loads {
			if !load.Fits(tp.Capacity[s].PerDimScale(ceil).Scale(1 + 1e-9)) {
				t.Fatalf("server %d load %v exceeds PEE-scaled capacity %v",
					s, load, tp.Capacity[s].PerDimScale(ceil))
			}
		}

		// Invariant 3: recompute Eq. 4/5 per group and per boundary. For a
		// boundary holding a strict subset of a group the reservation is
		// exactly R = min(inB, (totalB−inB)+interB); a boundary holding the
		// whole group reserves either min(totalB, interB) (it lies at or
		// below the chosen subtree) or nothing (above it) — so the committed
		// amount must fall between the sums of the unambiguous terms and
		// the sums including every whole-group boundary.
		expectMin := make(map[*topology.Link]float64)
		expectMax := make(map[*topology.Link]float64)
		for _, g := range groups {
			totalB, interB := 0.0, 0.0
			for m := range g.Containers {
				totalB += g.TotalMbps[m]
				interB += g.InterMbps[m]
			}
			for _, nd := range nodes {
				if nd.Uplink == nil {
					continue
				}
				under := make(map[int]bool, len(nd.ServerIDs))
				for _, s := range nd.ServerIDs {
					under[s] = true
				}
				inB := 0.0
				for m, c := range g.Containers {
					if under[pl.ServerOf[c]] {
						inB += g.TotalMbps[m]
					}
				}
				if inB <= 0 {
					continue
				}
				r := math.Min(inB, (totalB-inB)+interB)
				if r <= 0 {
					continue
				}
				if inB < totalB {
					expectMin[nd.Uplink] += r
					expectMax[nd.Uplink] += r
				} else {
					expectMax[nd.Uplink] += r
				}
			}
		}
		for _, nd := range nodes {
			l := nd.Uplink
			if l == nil {
				continue
			}
			got := pl.Reserved[nd.ID]
			if got < expectMin[l]-1e-6 || got > expectMax[l]+1e-6 {
				t.Fatalf("node %d uplink reserves %v Mbps, want within Eq. 4/5 bounds [%v, %v]",
					nd.ID, got, expectMin[l], expectMax[l])
			}
			if got > l.CapacityMbps+1e-6 {
				t.Fatalf("node %d uplink reserves %v Mbps over its %v Mbps capacity",
					nd.ID, got, l.CapacityMbps)
			}
		}
	})
}
