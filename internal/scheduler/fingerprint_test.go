package scheduler

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"goldilocks/internal/power"
	"goldilocks/internal/resources"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// placementFNV hashes a placement (FNV-64a over each server id as a
// little-endian int64) so a test can pin it in one table cell.
func placementFNV(placement []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range placement {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(s)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// fingerprintInputs are the requests TestBaselinePlacementFingerprints
// pins: the paper's testbed, a fat tree, a two-class leaf-spine (the
// packer tracks two capacity classes and Goldilocks takes the Virtual
// Cluster path) and a testbed with failed servers.
func fingerprintInputs(t *testing.T) []struct {
	name string
	req  Request
} {
	t.Helper()
	cfg := topology.Config{
		ServerCapacity: resources.New(3200, 64*1024, 1000),
		ServerModel:    power.Dell2018,
		ServerLinkMbps: 1000,
	}
	// The fat tree carries the §VI-B simulation servers (72 cores, 10G).
	fatTree, err := topology.NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, topology.Config{
		ServerCapacity: resources.New(7200, 6*1024*1024, 10000),
		ServerModel:    power.DellR940,
		ServerLinkMbps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	leafSpine, err := topology.NewLeafSpine(4, 6, 2, 10000, power.Wedge, power.Wedge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range leafSpine.Capacity {
		if s%3 == 2 {
			leafSpine.Capacity[s] = leafSpine.Capacity[s].Scale(2)
		}
	}
	failed := topology.NewTestbed()
	for _, s := range []int{0, 5} {
		if err := failed.FailServer(s); err != nil {
			t.Fatal(err)
		}
	}
	return []struct {
		name string
		req  Request
	}{
		{"testbed-twitter-176", Request{Spec: workload.TwitterWorkload(176, 9), Topo: topology.NewTestbed()}},
		{"fattree4-mixture-300", Request{Spec: workload.MixtureWorkload(300, 31), Topo: fatTree}},
		{"leafspine-2class-mixture-200", Request{Spec: workload.MixtureWorkload(200, 17), Topo: leafSpine}},
		{"testbed-failed-0-5-mixture-48", Request{Spec: workload.MixtureWorkload(48, 29), Topo: failed}},
	}
}

// carriedPolicy places with a fixed carried placement in every request.
type carriedPolicy struct {
	Policy
	carried []int
}

func (p carriedPolicy) Place(req Request) (Result, error) {
	req.Carried = p.carried
	return p.Policy.Place(req)
}

// primedIncremental returns an IncrementalGoldilocks that carries the
// fresh Goldilocks placement of the even-indexed containers, so the odd
// ones arrive and the repair, consolidation and improvement passes all
// run.
func primedIncremental(t *testing.T, req Request) Policy {
	t.Helper()
	fresh, err := Goldilocks{}.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	carried := make([]int, len(fresh.Placement))
	for i := range carried {
		carried[i] = -1
		if i%2 == 0 {
			carried[i] = fresh.Placement[i]
		}
	}
	return carriedPolicy{&IncrementalGoldilocks{MigrationBudget: 0.10}, carried}
}

// TestBaselinePlacementFingerprints pins the exact placement every policy
// produces on four inputs. Refactors of the packing loops (and fixes that
// must not touch these inputs) are checked against this table; a changed
// placement is printed in full.
func TestBaselinePlacementFingerprints(t *testing.T) {
	// Exact placements: a refactor of any policy must leave every cell as
	// it is; a change that means to move one says so where it updates it.
	want := map[string]uint64{
		"testbed-twitter-176/E-PVM":                            0xf91add2b26648685,
		"testbed-twitter-176/mPP":                              0x509f48985ec43825,
		"testbed-twitter-176/Borg":                             0x509f48985ec43825,
		"testbed-twitter-176/RC-Informed":                      0x4e2f6fb9117fdea5,
		"testbed-twitter-176/Goldilocks":                       0x54915b59004db567,
		"testbed-twitter-176/Goldilocks-incremental":           0x6ba6cc33cdecf2e5,
		"fattree4-mixture-300/E-PVM":                           0x64bfb0cd84df8e69,
		"fattree4-mixture-300/mPP":                             0x363bf15b5bf45907,
		"fattree4-mixture-300/Borg":                            0x811d562f0e36c2c7,
		"fattree4-mixture-300/RC-Informed":                     0x3bfc5d49a1f0e683,
		"fattree4-mixture-300/Goldilocks":                      0xa1f77d5373fcf28,
		"fattree4-mixture-300/Goldilocks-incremental":          0xa6f5b105e436c8ab,
		"leafspine-2class-mixture-200/E-PVM":                   0x48b7ac9fe42c2b9b,
		"leafspine-2class-mixture-200/mPP":                     0x3fa6e88ca55bd76b,
		"leafspine-2class-mixture-200/Borg":                    0xd5dd5260a10c72e1,
		"leafspine-2class-mixture-200/RC-Informed":             0xe12b51ed5c7ac5ab,
		"leafspine-2class-mixture-200/Goldilocks":              0x225ac77d15d1307b,
		"leafspine-2class-mixture-200/Goldilocks-incremental":  0x47024c5e9cffb385,
		"testbed-failed-0-5-mixture-48/E-PVM":                  0x68ac9c8c4272c0b,
		"testbed-failed-0-5-mixture-48/mPP":                    0x4e0d35278955125,
		"testbed-failed-0-5-mixture-48/Borg":                   0xd2c203fd2cb22465,
		"testbed-failed-0-5-mixture-48/RC-Informed":            0x682641d39ffdb62,
		"testbed-failed-0-5-mixture-48/Goldilocks":             0x2245f6920702ca05,
		"testbed-failed-0-5-mixture-48/Goldilocks-incremental": 0xf4a8feff65bb8565,
	}
	for _, in := range fingerprintInputs(t) {
		policies := []Policy{EPVM{}, MPP{}, Borg{}, RCInformed{}, Goldilocks{}, primedIncremental(t, in.req)}
		for _, p := range policies {
			key := in.name + "/" + p.Name()
			res, err := p.Place(in.req)
			if err != nil {
				t.Errorf("%s: %v", key, err)
				continue
			}
			if got := placementFNV(res.Placement); got != want[key] {
				t.Errorf("%s: fingerprint %#x, want %#x; placement %v", key, got, want[key], res.Placement)
			}
		}
	}
}
