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

func noDelayOptions() Options {
	return Options{LocalMbps: 80000} // zero propagation: exact FCT math
}

func TestSingleFlowFullRate(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, noDelayOptions())
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
	if math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("FCT = %vs, want 1s at line rate", got)
	}
}

func TestTwoFlowsShareNIC(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, noDelayOptions())
	// Both flows leave server 0: its 1G NIC is the bottleneck; each gets
	// 500 Mbps → 62.5 MB takes 1 s.
	s.Inject(0, 0, 4, 62.5e6)
	s.Inject(0, 0, 8, 62.5e6)
	done, stuck := s.Run()
	if len(stuck) != 0 || len(done) != 2 {
		t.Fatalf("done=%d stuck=%d", len(done), len(stuck))
	}
	for _, c := range done {
		if math.Abs(c.FCT().Seconds()-1.0) > 1e-6 {
			t.Fatalf("FCT = %v, want 1s under fair sharing", c.FCT())
		}
	}
}

func TestDisjointFlowsDoNotInterfere(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, noDelayOptions())
	// Different sources and destinations in different racks: both run at
	// line rate.
	s.Inject(0, 0, 2, 125e6)
	s.Inject(0, 4, 6, 125e6)
	done, _ := s.Run()
	for _, c := range done {
		if math.Abs(c.FCT().Seconds()-1.0) > 1e-6 {
			t.Fatalf("FCT = %v, want 1s (disjoint paths)", c.FCT())
		}
	}
}

func TestBandwidthFreedAfterCompletion(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, noDelayOptions())
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
	if math.Abs(small.FCT().Seconds()-0.8) > 1e-6 {
		t.Fatalf("small FCT = %v, want 0.8s", small.FCT())
	}
	if math.Abs(large.FCT().Seconds()-1.4) > 1e-6 {
		t.Fatalf("large FCT = %v, want 1.4s", large.FCT())
	}
}

func TestLocalFlowBypassesNetwork(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, noDelayOptions())
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
	s := New(tp, noDelayOptions())
	s.Inject(5*time.Second, 0, 1, 125e6)
	done, _ := s.Run()
	if got := done[0].Arrival; got != 5*time.Second {
		t.Fatalf("arrival = %v", got)
	}
	if got := done[0].Finish; math.Abs(got.Seconds()-6.0) > 1e-6 {
		t.Fatalf("finish = %v, want 6s", got)
	}
}

func TestPropagationDelayAddsPerHop(t *testing.T) {
	tp := testTopo(t)
	opts := Options{LocalMbps: 80000, PropagationDelayPerHop: time.Millisecond}
	s := New(tp, opts)
	// Same rack: 2 hops (two NIC links).
	s.Inject(0, 0, 1, 0)
	done, _ := s.Run()
	if got := done[0].FCT(); got != 2*time.Millisecond {
		t.Fatalf("zero-byte same-rack FCT = %v, want 2ms", got)
	}
}

func TestLocalityShortensFCT(t *testing.T) {
	// The core Goldilocks lever: the same transfer completes faster (or
	// equal) within a rack than across pods once propagation counts.
	tp := testTopo(t)
	opts := Options{LocalMbps: 80000, PropagationDelayPerHop: 100 * time.Microsecond}

	s1 := New(tp, opts)
	s1.Inject(0, 0, 1, 1e6) // same rack
	d1, _ := s1.Run()

	s2 := New(tp, opts)
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
	s := New(tp, noDelayOptions())
	s.Inject(0, 0, 4, 1e6) // must cross the dead rack uplink
	done, stuck := s.Run()
	if len(done) != 0 || len(stuck) != 1 {
		t.Fatalf("done=%d stuck=%d, want 0/1", len(done), len(stuck))
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, noDelayOptions())
	s.Inject(time.Second, 0, 4, 0)
	done, stuck := s.Run()
	if len(stuck) != 0 || len(done) != 1 {
		t.Fatalf("done=%d stuck=%d", len(done), len(stuck))
	}
	if done[0].FCT() != 0 {
		t.Fatalf("zero-byte FCT = %v", done[0].FCT())
	}
}

func TestNegativeSizePanics(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, noDelayOptions())
	defer func() {
		if recover() == nil {
			t.Fatal("negative size must panic")
		}
	}()
	s.Inject(0, 0, 1, -5)
}

func TestRunTwicePanics(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, noDelayOptions())
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run must panic")
		}
	}()
	s.Run()
}

func TestLinkStatsRecorded(t *testing.T) {
	tp := testTopo(t)
	s := New(tp, noDelayOptions())
	s.Inject(0, 0, 1, 125e6)
	s.Run()
	nic := tp.ServerNode[0].Uplink
	st := s.Stats()[nic]
	if st == nil {
		t.Fatal("no stats for the source NIC")
	}
	if math.Abs(st.PeakUtilization-1.0) > 1e-9 {
		t.Fatalf("peak utilization = %v, want 1.0", st.PeakUtilization)
	}
	if math.Abs(st.BytesCarried-125e6) > 1 {
		t.Fatalf("bytes carried = %v, want 125e6", st.BytesCarried)
	}
}

func TestPropertyConservationAndOrdering(t *testing.T) {
	tp := testTopo(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(tp, noDelayOptions())
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

func TestPropertyNoLinkOversubscribed(t *testing.T) {
	tp := testTopo(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(tp, noDelayOptions())
		for i := 0; i < 30; i++ {
			s.Inject(0, rng.Intn(16), rng.Intn(16), float64(rng.Intn(1e6)+1))
		}
		s.Run()
		for _, st := range s.Stats() {
			if st.PeakUtilization > 1+1e-9 {
				return false
			}
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
	opts := noDelayOptions()
	opts.Trace = root
	s := New(testTopo(t), opts)
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
		s := New(tp, DefaultOptions())
		for j := 0; j < 200; j++ {
			s.Inject(time.Duration(rng.Intn(100))*time.Millisecond,
				rng.Intn(128), rng.Intn(128), float64(rng.Intn(1e7)+1000))
		}
		s.Run()
	}
}
