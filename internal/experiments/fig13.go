package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"goldilocks/internal/cluster"
	"goldilocks/internal/netsim"
	"goldilocks/internal/power"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/trace"
	"goldilocks/internal/workload"
)

// Fig13Options parameterizes the large-scale trace-driven simulation.
type Fig13Options struct {
	// Arity is the fat-tree k; the paper's run uses 28 (5488 servers,
	// 980 switches). Smaller even arities give proportionally scaled
	// runs for CI and benchmarks.
	Arity int
	// ReplicasPerServer scales the container population; the paper hosts
	// 49392 containers on 5488 servers (9 per server).
	ReplicasPerServer int
	// TargetEPVMUtil is the average server utilization the baseline
	// E-PVM should see (paper: 20–30%); demands are normalized to it.
	TargetEPVMUtil float64
	// Epochs covers the 88-hour trace window (default 22 × 4 h).
	Epochs int
	// NetsimFlows, when positive, additionally runs a flow-level
	// simulation sample of that many query flows per policy at the peak
	// epoch and reports mean flow completion times.
	NetsimFlows int
	Seed        int64
	// Telemetry, when non-nil, threads the observability session through
	// the cluster runner (spans, metrics, audit decisions).
	Telemetry *telemetry.Session
}

// DefaultFig13 is the paper-scale configuration. Use a smaller Arity for
// quick runs.
func DefaultFig13() Fig13Options {
	return Fig13Options{
		Arity:             28,
		ReplicasPerServer: 9,
		TargetEPVMUtil:    0.25,
		Epochs:            22,
		NetsimFlows:       2000,
		Seed:              13,
	}
}

// Fig13Row is one policy's large-scale outcome, raw and normalized to the
// E-PVM baseline (the Fig. 13(d) bars).
type Fig13Row struct {
	Policy         string
	MeanActive     float64
	MeanPowerKW    float64
	MeanTCTMS      float64
	NormActive     float64
	NormPower      float64
	NormTCT        float64
	NetsimMeanFCTm float64 // mean sampled query FCT in ms (0 if disabled)
}

// Fig13Result is the large-scale comparison.
type Fig13Result struct {
	Opts       Fig13Options
	NumServers int
	Containers int
	Rows       []Fig13Row
}

// Fig13 runs the §VI-B simulation: the synthetic Microsoft search trace
// (plus Hadoop background demand via the Fig. 12 calibration) replicated
// across a k-ary fat tree of Dell R940 servers, scheduled by all five
// policies across a diurnal 88-hour window.
func Fig13(opts Fig13Options) (*Fig13Result, error) {
	if opts.Arity <= 0 {
		opts = DefaultFig13()
	}
	if opts.Arity%2 != 0 {
		return nil, fmt.Errorf("fig13: arity %d must be even", opts.Arity)
	}
	cfg := topology.Config{
		ServerCapacity: resources.New(7200, 6*1024*1024, 10000),
		ServerModel:    power.DellR940,
		ServerLinkMbps: 10000,
	}
	topo, err := topology.NewFatTree(opts.Arity, power.Altoline6940, power.Altoline6940, power.Altoline6940, cfg)
	if err != nil {
		return nil, fmt.Errorf("fig13: %w", err)
	}
	numServers := topo.NumServers()

	spec := buildFig13Workload(numServers, opts)
	res := &Fig13Result{
		Opts:       opts,
		NumServers: numServers,
		Containers: len(spec.Containers),
	}

	clusterOpts := cluster.DefaultOptions()
	clusterOpts.EpochLength = 4 * time.Hour
	clusterOpts.FocusApp = workload.WebSearch.Name
	clusterOpts.Telemetry = opts.Telemetry
	clusterOpts.PerHopLatencyMS = 0.2 // 10G fabric: lighter per-hop cost than the 1G testbed

	var peakPlacements = map[string][]int{}
	for _, policy := range testbedPolicies() {
		runner := cluster.NewRunner(topo, policy, clusterOpts)
		var active, powerW, tct float64
		for e := 0; e < opts.Epochs; e++ {
			factor := diurnal(e, opts.Epochs)
			scaled := spec.Scaled(factor)
			rps := totalSearchRPS(scaled)
			rep, err := runner.RunEpoch(cluster.EpochInput{Spec: scaled, RPS: rps})
			if err != nil {
				return nil, fmt.Errorf("fig13: %s epoch %d: %w", policy.Name(), e, err)
			}
			active += float64(rep.ActiveServers)
			powerW += rep.TotalPowerW
			tct += rep.MeanTCTMS
		}
		n := float64(opts.Epochs)
		row := Fig13Row{
			Policy:      policy.Name(),
			MeanActive:  active / n,
			MeanPowerKW: powerW / n / 1000,
			MeanTCTMS:   tct / n,
		}
		if opts.NetsimFlows > 0 {
			// Re-place the peak workload once to drive the flow-level
			// sample.
			peak, err := policy.Place(scheduler.Request{Spec: spec, Topo: topo})
			if err != nil {
				return nil, fmt.Errorf("fig13: %s peak placement: %w", policy.Name(), err)
			}
			peakPlacements[policy.Name()] = peak.Placement
			row.NetsimMeanFCTm = netsimSample(topo, spec, peak.Placement, opts)
		}
		res.Rows = append(res.Rows, row)
	}

	// Normalize to E-PVM (Fig. 13(d)).
	var base Fig13Row
	for _, r := range res.Rows {
		if r.Policy == "E-PVM" {
			base = r
		}
	}
	for i := range res.Rows {
		if base.MeanActive > 0 {
			res.Rows[i].NormActive = res.Rows[i].MeanActive / base.MeanActive
		}
		if base.MeanPowerKW > 0 {
			res.Rows[i].NormPower = res.Rows[i].MeanPowerKW / base.MeanPowerKW
		}
		if base.MeanTCTMS > 0 {
			res.Rows[i].NormTCT = res.Rows[i].MeanTCTMS / base.MeanTCTMS
		}
	}
	return res, nil
}

// buildFig13Workload synthesizes the trace at the topology's scale,
// replicates it to the container population, and normalizes aggregate CPU
// demand to the target E-PVM utilization.
func buildFig13Workload(numServers int, opts Fig13Options) *workload.Spec {
	edges := int(float64(trace.DefaultSearchTrace().Edges) * float64(numServers) / 5488)
	base := trace.Synthesize(trace.SearchTraceOptions{
		Vertices: numServers,
		Edges:    edges,
		Seed:     opts.Seed,
	})
	spec := &workload.Spec{}
	for r := 0; r < opts.ReplicasPerServer; r++ {
		offset := len(spec.Containers)
		for _, c := range base.Containers {
			c.ID = offset + c.ID
			spec.Containers = append(spec.Containers, c)
		}
		for _, f := range base.Flows {
			spec.Flows = append(spec.Flows, workload.Flow{A: f.A + offset, B: f.B + offset, Count: f.Count})
		}
	}
	// Normalize CPU so the all-on baseline sits at the target utilization.
	totalCPU := 0.0
	for _, c := range spec.Containers {
		totalCPU += c.Demand[resources.CPU]
	}
	capacity := float64(numServers) * 7200
	if totalCPU > 0 {
		f := opts.TargetEPVMUtil * capacity / totalCPU
		for i := range spec.Containers {
			spec.Containers[i].Demand[resources.CPU] *= f
			// Owners reserve ~1.5× their typical demand; RC-Informed
			// buckets on reservations, which is why it holds ~2358
			// servers while Borg/mPP pack into fewer (Fig. 13(a)).
			spec.Containers[i].Reserved = spec.Containers[i].Demand.Scale(1.5)
		}
	}
	return spec
}

// diurnal maps an epoch to a 0.75–1.25 load multiplier over the window.
func diurnal(epoch, total int) float64 {
	if total <= 1 {
		return 1
	}
	phase := 2 * math.Pi * float64(epoch) / float64(total)
	return 1 + 0.25*math.Sin(phase)
}

// totalSearchRPS estimates the aggregate query rate from the calibrated
// CPU demand (~24% CPU per RPS on an index-serving node, Fig. 12(a)).
func totalSearchRPS(spec *workload.Spec) float64 {
	totalCPU := 0.0
	for _, c := range spec.Containers {
		totalCPU += c.Demand[resources.CPU]
	}
	return totalCPU / 24
}

// netsimSample runs a flow-level sample of query flows under the given
// placement and returns the mean FCT in milliseconds.
func netsimSample(topo *topology.Topology, spec *workload.Spec, placement []int, opts Fig13Options) float64 {
	rng := rand.New(rand.NewSource(opts.Seed + 77))
	s := netsim.New(topo, nil)
	nFlows := opts.NetsimFlows
	for i := 0; i < nFlows; i++ {
		f := spec.Flows[rng.Intn(len(spec.Flows))]
		class := trace.QueryFlow
		if rng.Float64() < 0.1 {
			class = trace.BackgroundFlow
		}
		size := trace.FlowSizeBytes(rng, class)
		at := time.Duration(rng.Intn(1000)) * time.Millisecond
		s.Inject(at, placement[f.A], placement[f.B], size)
	}
	done, _ := s.Run()
	if len(done) == 0 {
		return 0
	}
	var sum float64
	for _, c := range done {
		sum += float64(c.FCT().Microseconds()) / 1000
	}
	return sum / float64(len(done))
}

// Print renders the Fig. 13 summary.
func (r *Fig13Result) Print(w io.Writer) {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Policy,
			f1(row.MeanActive),
			f1(row.MeanPowerKW),
			f2(row.MeanTCTMS),
			f2(row.NormPower),
			f2(row.NormTCT),
			f2(row.NetsimMeanFCTm),
		}
	}
	table(w, []string{"policy", "avg active", "avg power (kW)", "avg TCT (ms)", "power/E-PVM", "TCT/E-PVM", "netsim FCT (ms)"}, rows)
}
