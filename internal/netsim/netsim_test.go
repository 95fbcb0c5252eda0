package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"goldilocks/internal/power"
	"goldilocks/internal/resources"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	cfg := topology.Config{
		ServerCapacity: resources.New(2400, 65536, 1000),
		ServerModel:    power.Dell2018,
		ServerLinkMbps: 1000,
	}
	tp, err := topology.NewFatTree(4, power.Wedge, power.Wedge, power.Wedge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// Hop counts on the k=4 fat tree (2 servers per rack, 4 per pod): every
// network flow finishes hops × propagationDelayPerHop after its last bit.
const (
	sameRack = 2 * propagationDelayPerHop
	samePod  = 4 * propagationDelayPerHop
	crossPod = 6 * propagationDelayPerHop
)

func TestSingleFlowFullRate(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, nil)
	// 1000 Mbps NIC bottleneck; 125 MB = 1e9 bits → exactly 1 s.
	s.Inject(0, 0, 1, 125e6)
	done, stuck := s.Run()
	if len(stuck) != 0 {
		t.Fatalf("stuck flows: %v", stuck)
	}
	if len(done) != 1 {
		t.Fatalf("completions = %d", len(done))
	}
	got := done[0].FCT().Seconds()
	if want := 1.0 + sameRack.Seconds(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("FCT = %vs, want %vs at line rate", got, want)
	}
}

func TestTwoFlowsShareNIC(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, nil)
	// Both flows leave server 0: its 1G NIC is the bottleneck; each gets
	// 500 Mbps → 62.5 MB takes 1 s.
	s.Inject(0, 0, 4, 62.5e6)
	s.Inject(0, 0, 8, 62.5e6)
	done, stuck := s.Run()
	if len(stuck) != 0 || len(done) != 2 {
		t.Fatalf("done=%d stuck=%d", len(done), len(stuck))
	}
	for _, c := range done {
		if want := 1.0 + crossPod.Seconds(); math.Abs(c.FCT().Seconds()-want) > 1e-6 {
			t.Fatalf("FCT = %v, want %vs under fair sharing", c.FCT(), want)
		}
	}
}

func TestDisjointFlowsDoNotInterfere(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, nil)
	// Different sources and destinations in different racks: both run at
	// line rate.
	s.Inject(0, 0, 2, 125e6)
	s.Inject(0, 4, 6, 125e6)
	done, _ := s.Run()
	for _, c := range done {
		if want := 1.0 + samePod.Seconds(); math.Abs(c.FCT().Seconds()-want) > 1e-6 {
			t.Fatalf("FCT = %v, want %vs (disjoint paths)", c.FCT(), want)
		}
	}
}

func TestBandwidthFreedAfterCompletion(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, nil)
	// Short flow shares the NIC for its lifetime, then the long flow
	// speeds up: 0→1 small (50e6 bytes), 0→2 large (125e6 bytes).
	// Phase 1: both at 500 Mbps until small finishes at t=0.8 (4e8 bits).
	// Large has 1e9−4e8 = 6e8 bits left, now at 1000 Mbps → +0.6 s.
	s.Inject(0, 0, 1, 50e6)
	s.Inject(0, 0, 2, 125e6)
	done, _ := s.Run()
	if len(done) != 2 {
		t.Fatalf("done = %d", len(done))
	}
	var small, large Completed
	for _, c := range done {
		if c.SizeBytes == 50e6 {
			small = c
		} else {
			large = c
		}
	}
	if want := 0.8 + sameRack.Seconds(); math.Abs(small.FCT().Seconds()-want) > 1e-6 {
		t.Fatalf("small FCT = %v, want %vs", small.FCT(), want)
	}
	if want := 1.4 + samePod.Seconds(); math.Abs(large.FCT().Seconds()-want) > 1e-6 {
		t.Fatalf("large FCT = %v, want %vs", large.FCT(), want)
	}
}

func TestLocalFlowBypassesNetwork(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, nil)
	s.Inject(0, 3, 3, 1e6)
	done, _ := s.Run()
	if len(done) != 1 {
		t.Fatalf("done = %d", len(done))
	}
	want := 8e6 / (80000 * 1e6)
	if math.Abs(done[0].FCT().Seconds()-want) > 1e-9 {
		t.Fatalf("local FCT = %v, want %v", done[0].FCT().Seconds(), want)
	}
}

func TestLateArrival(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, nil)
	s.Inject(5*time.Second, 0, 1, 125e6)
	done, _ := s.Run()
	if got := done[0].Arrival; got != 5*time.Second {
		t.Fatalf("arrival = %v", got)
	}
	if got, want := done[0].Finish, 6.0+sameRack.Seconds(); math.Abs(got.Seconds()-want) > 1e-6 {
		t.Fatalf("finish = %v, want %vs", got, want)
	}
}

func TestPropagationDelayAddsPerHop(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, nil)
	// Same rack: 2 hops (two NIC links).
	s.Inject(0, 0, 1, 0)
	done, _ := s.Run()
	if got := done[0].FCT(); got != sameRack {
		t.Fatalf("zero-byte same-rack FCT = %v, want %v", got, sameRack)
	}
}

func TestLocalityShortensFCT(t *testing.T) {
	// The core Goldilocks lever: the same transfer completes faster (or
	// equal) within a rack than across pods once propagation counts.
	tp := testTopo(t)
	s1 := New(tp, nil)
	s1.Inject(0, 0, 1, 1e6) // same rack
	d1, _ := s1.Run()

	s2 := New(tp, nil)
	s2.Inject(0, 0, 12, 1e6) // cross pod
	d2, _ := s2.Run()

	if d1[0].FCT() >= d2[0].FCT() {
		t.Fatalf("same-rack FCT %v not shorter than cross-pod %v", d1[0].FCT(), d2[0].FCT())
	}
}

func TestStuckFlowOnDeadLink(t *testing.T) {
	tp := testTopo(t)
	rack := tp.SubtreesAtLevel(topology.LevelRack)[0]
	if err := tp.FailUplinkFraction(rack, 1.0); err != nil {
		t.Fatal(err)
	}
	s := New(tp, nil)
	s.Inject(0, 0, 4, 1e6) // must cross the dead rack uplink
	done, stuck := s.Run()
	if len(done) != 0 || len(stuck) != 1 {
		t.Fatalf("done=%d stuck=%d, want 0/1", len(done), len(stuck))
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, nil)
	s.Inject(time.Second, 0, 4, 0)
	done, stuck := s.Run()
	if len(stuck) != 0 || len(done) != 1 {
		t.Fatalf("done=%d stuck=%d", len(done), len(stuck))
	}
	if done[0].FCT() != crossPod {
		t.Fatalf("zero-byte FCT = %v, want %v", done[0].FCT(), crossPod)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("negative size must panic")
		}
	}()
	s.Inject(0, 0, 1, -5)
}

func TestRunTwicePanics(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, nil)
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run must panic")
		}
	}()
	s.Run()
}

func TestPropertyConservationAndOrdering(t *testing.T) {
	tp := testTopo(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(tp, nil)
		n := rng.Intn(20) + 1
		total := 0.0
		for i := 0; i < n; i++ {
			size := float64(rng.Intn(1e6) + 1)
			total += size
			s.Inject(time.Duration(rng.Intn(1000))*time.Millisecond,
				rng.Intn(16), rng.Intn(16), size)
		}
		done, stuck := s.Run()
		if len(done)+len(stuck) != n {
			return false // flow lost
		}
		prev := time.Duration(0)
		for _, c := range done {
			if c.Finish < c.Arrival {
				return false // time travel
			}
			if c.Finish < prev {
				return false // not sorted
			}
			prev = c.Finish
		}
		return len(stuck) == 0 // symmetric healthy fabric: nothing sticks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNoLinkOversubscribed: after every rate allocation, the
// flows crossing a link never sum past its capacity. computeRates depends
// only on the active set, so the test drives it directly over the active
// sets a run passes through: all flows, then survivors as random flows
// complete (arrival order preserved).
func TestPropertyNoLinkOversubscribed(t *testing.T) {
	tp := testTopo(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(tp, nil)
		for i := 0; i < 30; i++ {
			s.Inject(0, rng.Intn(16), rng.Intn(16), float64(rng.Intn(1e6)+1))
		}
		active := make([]*flow, len(s.arrivals))
		for i, a := range s.arrivals {
			active[i] = a.flow
		}
		for len(active) > 0 {
			computeRates(active)
			load := make(map[*topology.Link]float64)
			for _, fl := range active {
				for _, l := range fl.links {
					load[l] += fl.rateMbps
				}
			}
			for l, mbps := range load {
				if mbps > l.CapacityMbps*(1+1e-9) {
					t.Logf("seed %d: %d flows load a %v Mbps link with %v Mbps", seed, len(active), l.CapacityMbps, mbps)
					return false
				}
			}
			k := rng.Intn(len(active))
			active = append(active[:k], active[k+1:]...)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRunSpanCoversSimulation: the netsim-run span must time the
// simulation, not just the bookkeeping after it, so its wall duration is
// at least half the wall time measured around Run.
func TestRunSpanCoversSimulation(t *testing.T) {
	tr := telemetry.NewTracer()
	root := tr.Root("test", 0)
	s := New(testTopo(t), root)
	rng := rand.New(rand.NewSource(1))
	for j := 0; j < 200; j++ {
		s.Inject(time.Duration(rng.Intn(100))*time.Millisecond,
			rng.Intn(16), rng.Intn(16), float64(rng.Intn(1e7)+1000))
	}
	start := time.Now()
	s.Run()
	outer := time.Since(start)
	root.End()
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "netsim-run" {
		t.Fatalf("want one netsim-run child span, got %d", len(kids))
	}
	if got := kids[0].WallDuration(); got < outer/2 {
		t.Fatalf("netsim-run span lasted %v, Run took %v", got, outer)
	}
}

func BenchmarkNetsim200Flows(b *testing.B) {
	cfg := topology.Config{
		ServerCapacity: resources.New(2400, 65536, 1000),
		ServerModel:    power.Dell2018,
		ServerLinkMbps: 1000,
	}
	tp, err := topology.NewFatTree(8, power.Wedge, power.Wedge, power.Wedge, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-seed so every iteration simulates the same 200 flows and
		// allocs/op does not depend on the iteration count.
		rng.Seed(1)
		s := New(tp, nil)
		for j := 0; j < 200; j++ {
			s.Inject(time.Duration(rng.Intn(100))*time.Millisecond,
				rng.Intn(128), rng.Intn(128), float64(rng.Intn(1e7)+1000))
		}
		s.Run()
	}
}
