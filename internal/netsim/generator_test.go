package netsim

import (
	"testing"
	"time"

	"goldilocks/internal/scheduler"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

func TestInjectWorkloadBasics(t *testing.T) {
	topo := topology.NewTestbed()
	spec := workload.TwitterWorkload(60, 1)
	res, err := (scheduler.Goldilocks{}).Place(scheduler.Request{Spec: spec, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	s := New(topo, nil)
	opts := DefaultGeneratorOptions()
	opts.FlowsPerSecond = 200
	n := s.InjectWorkload(spec, res.Placement, opts)
	if n < 120 || n > 300 {
		t.Fatalf("injected %d flows, want ≈200 (Poisson over 1s)", n)
	}
	done, stuck := s.Run()
	if len(stuck) != 0 {
		t.Fatalf("%d stuck flows on a healthy fabric", len(stuck))
	}
	if len(done) != n {
		t.Fatalf("completed %d of %d", len(done), n)
	}
	if MeanFCT(done) <= 0 {
		t.Fatal("mean FCT must be positive")
	}
}

func TestInjectWorkloadFocusApp(t *testing.T) {
	topo := topology.NewTestbed()
	spec := workload.MixtureWorkload(80, 2)
	res, err := (scheduler.Borg{}).Place(scheduler.Request{Spec: spec, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	s := New(topo, nil)
	opts := DefaultGeneratorOptions()
	opts.FocusApp = workload.TwitterCaching.Name
	if n := s.InjectWorkload(spec, res.Placement, opts); n == 0 {
		t.Fatal("no flows injected with twitter focus")
	}
}

func TestInjectWorkloadDegenerateOptions(t *testing.T) {
	topo := topology.NewTestbed()
	spec := workload.TwitterWorkload(20, 1)
	res, _ := (scheduler.Goldilocks{}).Place(scheduler.Request{Spec: spec, Topo: topo})
	s := New(topo, nil)
	if n := s.InjectWorkload(spec, res.Placement, GeneratorOptions{}); n != 0 {
		t.Fatal("zero options must inject nothing")
	}
	if n := s.InjectWorkload(&workload.Spec{}, nil, DefaultGeneratorOptions()); n != 0 {
		t.Fatal("empty spec must inject nothing")
	}
}

// TestCrossValidateAnalyticModel is the point of the generator: the
// flow-level simulator, driven by actual Poisson query traffic over each
// policy's placement, must reproduce the analytic model's ordering —
// Goldilocks' locality gives it the shortest flow completion times.
func TestCrossValidateAnalyticModel(t *testing.T) {
	topo := topology.NewTestbed()
	spec := workload.TwitterWorkload(120, 3)

	fct := func(p scheduler.Policy) time.Duration {
		res, err := p.Place(scheduler.Request{Spec: spec, Topo: topo})
		if err != nil {
			t.Fatal(err)
		}
		s := New(topo, nil)
		opts := DefaultGeneratorOptions()
		opts.FlowsPerSecond = 400
		opts.FocusApp = workload.TwitterCaching.Name
		s.InjectWorkload(spec, res.Placement, opts)
		done, _ := s.Run()
		return MeanFCT(done)
	}

	gold := fct(scheduler.Goldilocks{})
	epvm := fct(scheduler.EPVM{})
	if gold >= epvm {
		t.Fatalf("flow-level cross-check: Goldilocks FCT %v not below E-PVM %v", gold, epvm)
	}
}
