package cluster

import (
	"testing"
	"time"

	"goldilocks/internal/scheduler"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

func run(t *testing.T, p scheduler.Policy, spec *workload.Spec, rps float64) EpochReport {
	t.Helper()
	r := NewRunner(topology.NewTestbed(), p, DefaultOptions())
	rep, err := r.RunEpoch(EpochInput{Spec: spec, RPS: rps})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEpochReportBasics(t *testing.T) {
	spec := workload.TwitterWorkload(80, 1)
	rep := run(t, scheduler.Goldilocks{}, spec, 100000)
	if rep.ActiveServers <= 0 || rep.ActiveServers > 16 {
		t.Fatalf("active servers = %d", rep.ActiveServers)
	}
	if rep.ServerPowerW <= 0 {
		t.Fatal("server power must be positive")
	}
	if rep.NetworkPowerW <= 0 {
		t.Fatal("network power must be positive (active switches)")
	}
	if rep.TotalPowerW != rep.ServerPowerW+rep.NetworkPowerW {
		t.Fatal("total power mismatch")
	}
	if rep.MeanTCTMS <= 0 {
		t.Fatal("TCT must be positive")
	}
	if rep.EnergyPerRequestJ <= 0 {
		t.Fatal("energy/request must be positive")
	}
	if rep.Requests != 100000*60 {
		t.Fatalf("requests = %v", rep.Requests)
	}
	if rep.Policy != "Goldilocks" {
		t.Fatalf("policy = %q", rep.Policy)
	}
}

func TestEPVMUsesAllServersAndMostPower(t *testing.T) {
	spec := workload.TwitterWorkload(120, 1)
	epvm := run(t, scheduler.EPVM{}, spec, 100000)
	gold := run(t, scheduler.Goldilocks{}, spec, 100000)
	if epvm.ActiveServers != 16 {
		t.Fatalf("E-PVM active = %d, want 16", epvm.ActiveServers)
	}
	if gold.ActiveServers >= epvm.ActiveServers {
		t.Fatalf("Goldilocks active %d not below E-PVM %d", gold.ActiveServers, epvm.ActiveServers)
	}
	if gold.TotalPowerW >= epvm.TotalPowerW {
		t.Fatalf("Goldilocks power %.0fW not below E-PVM %.0fW", gold.TotalPowerW, epvm.TotalPowerW)
	}
}

func TestGoldilocksBeatsPackersOnTCT(t *testing.T) {
	// Fig. 9(c): packing to 95% inflates queueing; Goldilocks' 70%
	// headroom plus locality wins.
	spec := workload.TwitterWorkload(176, 1)
	gold := run(t, scheduler.Goldilocks{}, spec, 300000)
	borg := run(t, scheduler.Borg{}, spec, 300000)
	mpp := run(t, scheduler.MPP{}, spec, 300000)
	if gold.MeanTCTMS >= borg.MeanTCTMS {
		t.Fatalf("Goldilocks TCT %.2fms not below Borg %.2fms", gold.MeanTCTMS, borg.MeanTCTMS)
	}
	if gold.MeanTCTMS >= mpp.MeanTCTMS {
		t.Fatalf("Goldilocks TCT %.2fms not below mPP %.2fms", gold.MeanTCTMS, mpp.MeanTCTMS)
	}
}

func TestNetworkPowerDropsWithIdleRacks(t *testing.T) {
	// A tiny workload leaves most racks dark → network power far below
	// the all-on figure.
	small := run(t, scheduler.Goldilocks{}, workload.TwitterWorkload(8, 1), 1000)
	big := run(t, scheduler.EPVM{}, workload.TwitterWorkload(8, 1), 1000)
	if small.NetworkPowerW >= big.NetworkPowerW {
		t.Fatalf("packed network power %.0fW not below spread %.0fW",
			small.NetworkPowerW, big.NetworkPowerW)
	}
}

func TestMigrationAccounting(t *testing.T) {
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, DefaultOptions())
	spec := workload.TwitterWorkload(60, 1)
	if _, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000}); err != nil {
		t.Fatal(err)
	}
	// Same workload again: same deterministic placement → no migrations.
	rep2, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Migrations != 0 {
		t.Fatalf("stable workload migrated %d containers", rep2.Migrations)
	}
	// Scaled workload changes demands → some containers may move; the
	// accounting must stay consistent (bytes only when migrations > 0).
	rep3, err := r.RunEpoch(EpochInput{Spec: spec.Scaled(0.4), RPS: 400})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Migrations == 0 && rep3.MigrationMB != 0 {
		t.Fatal("migration bytes without migrations")
	}
	if rep3.Migrations > 0 && rep3.MigrationMB <= 0 {
		t.Fatal("migrations without migration bytes")
	}
}

func TestRunSeries(t *testing.T) {
	r := NewRunner(topology.NewTestbed(), scheduler.Borg{}, DefaultOptions())
	var inputs []EpochInput
	for e := 0; e < 5; e++ {
		inputs = append(inputs, EpochInput{Spec: workload.TwitterWorkload(60, 1), RPS: 50000})
	}
	reps, err := r.RunSeries(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 5 {
		t.Fatalf("reports = %d", len(reps))
	}
	for i, rep := range reps {
		if rep.Epoch != i {
			t.Fatalf("epoch numbering: %d at index %d", rep.Epoch, i)
		}
		if rep.Time != time.Duration(i)*time.Minute {
			t.Fatalf("epoch time = %v", rep.Time)
		}
	}
	if r.TotalEnergyPerRequest() <= 0 {
		t.Fatal("cumulative energy/request must be positive")
	}
}

func TestRunSeriesShedsOnOverload(t *testing.T) {
	// An infeasible epoch no longer aborts the series: the degradation
	// ladder bottoms out in admission control, which sheds just enough
	// load deterministically and reports the rejection.
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, DefaultOptions())
	inputs := []EpochInput{
		{Spec: workload.TwitterWorkload(60, 1), RPS: 1000},
		{Spec: workload.TwitterWorkload(5000, 1), RPS: 1000}, // infeasible
	}
	reps, err := r.RunSeries(inputs)
	if err != nil {
		t.Fatalf("admission control should absorb the overload: %v", err)
	}
	if len(reps) != 2 {
		t.Fatalf("reports = %d, want 2", len(reps))
	}
	if reps[0].AdmissionRejected != 0 {
		t.Fatalf("feasible epoch rejected %d containers", reps[0].AdmissionRejected)
	}
	over := reps[1]
	if over.AdmissionRejected == 0 {
		t.Fatal("infeasible epoch must shed containers")
	}
	if over.AdmissionRejected >= 5000 {
		t.Fatal("shedding must keep part of the workload running")
	}
	if over.RejectedDemand.IsZero() {
		t.Fatal("rejected demand must be accounted")
	}
	if over.Availability >= 1 {
		t.Fatal("rejections must show up as lost availability")
	}
}

func TestTCTFocusApp(t *testing.T) {
	// With focus on Twitter, a mixture's TCT only samples twitter flows.
	spec := workload.MixtureWorkload(60, 2)
	opts := DefaultOptions()
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, opts)
	rep, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	twitterFlows := 0
	for _, f := range spec.Flows {
		if spec.Containers[f.A].App.Name == workload.TwitterCaching.Name &&
			spec.Containers[f.B].App.Name == workload.TwitterCaching.Name {
			twitterFlows++
		}
	}
	if rep.TCT.Count != twitterFlows {
		t.Fatalf("TCT samples = %d, want %d twitter flows", rep.TCT.Count, twitterFlows)
	}
}

func TestHigherLoadRaisesTCT(t *testing.T) {
	// Queueing: the same policy at higher utilization has longer TCT.
	spec := workload.TwitterWorkload(176, 1)
	low := run(t, scheduler.Borg{}, spec.Scaled(0.3), 100000)
	high := run(t, scheduler.Borg{}, spec, 100000)
	if high.MeanTCTMS <= low.MeanTCTMS {
		t.Fatalf("TCT at full load (%.2fms) not above light load (%.2fms)",
			high.MeanTCTMS, low.MeanTCTMS)
	}
}

func TestDefaultsApplied(t *testing.T) {
	r := NewRunner(topology.NewTestbed(), scheduler.EPVM{}, Options{})
	if r.opts.EpochLength != time.Minute {
		t.Fatalf("epoch length default = %v", r.opts.EpochLength)
	}
}

func BenchmarkRunEpochGoldilocks(b *testing.B) {
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, DefaultOptions())
	spec := workload.TwitterWorkload(176, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 100000}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSLAViolationAccounting(t *testing.T) {
	spec := workload.TwitterWorkload(176, 1)
	opts := DefaultOptions()
	opts.SLATargetMS = 3.0

	// Borg at full load with a burst: many query paths exceed 3 ms.
	borg := NewRunner(topology.NewTestbed(), scheduler.Borg{}, opts)
	repBorg, err := borg.RunEpoch(EpochInput{Spec: spec, RPS: 400000, Burst: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	gold := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, opts)
	repGold, err := gold.RunEpoch(EpochInput{Spec: spec, RPS: 400000, Burst: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	if repGold.SLAViolations >= repBorg.SLAViolations {
		t.Fatalf("Goldilocks SLA violations %.2f not below Borg %.2f under burst",
			repGold.SLAViolations, repBorg.SLAViolations)
	}
	if repBorg.SLAViolations <= 0 || repBorg.SLAViolations > 1 {
		t.Fatalf("Borg violation share = %v", repBorg.SLAViolations)
	}
}

func TestSLADisabledByDefault(t *testing.T) {
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, DefaultOptions())
	rep, err := r.RunEpoch(EpochInput{Spec: workload.TwitterWorkload(40, 1), RPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLAViolations != 0 {
		t.Fatal("no SLA target set, violations must be 0")
	}
}

func TestBurstRaisesUtilizationAndTCT(t *testing.T) {
	spec := workload.TwitterWorkload(176, 1)
	r1 := NewRunner(topology.NewTestbed(), scheduler.Borg{}, DefaultOptions())
	steady, err := r1.RunEpoch(EpochInput{Spec: spec, RPS: 100000})
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(topology.NewTestbed(), scheduler.Borg{}, DefaultOptions())
	burst, err := r2.RunEpoch(EpochInput{Spec: spec, RPS: 100000, Burst: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if burst.MeanServerUtil <= steady.MeanServerUtil {
		t.Fatal("burst must raise server utilization")
	}
	if burst.MeanTCTMS <= steady.MeanTCTMS {
		t.Fatal("burst must raise TCT")
	}
	if burst.ActiveServers != steady.ActiveServers {
		t.Fatal("burst happens after placement: active servers unchanged")
	}
}
