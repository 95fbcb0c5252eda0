// Package netsim is the flow-level network simulator used for the paper's
// large-scale evaluation (§VI-B): flows between servers share the
// topology's aggregate links under max-min fairness, and flow completion
// times emerge from the progressive-filling rate allocation — the standard
// methodology for data center simulations at this scale.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
)

// FlowID identifies an injected flow.
type FlowID int

// Completed records one finished flow.
type Completed struct {
	ID        FlowID
	Src, Dst  int
	SizeBytes float64
	Arrival   time.Duration
	Finish    time.Duration
}

// FCT returns the flow completion time.
func (c Completed) FCT() time.Duration { return c.Finish - c.Arrival }

// The fabric model every caller uses: a 10G-class data center.
const (
	// localMbps is the rate granted to flows whose endpoints share a
	// server (loopback / shared memory); they never touch the network.
	localMbps = 80000
	// propagationDelayPerHop adds fixed per-link latency to every flow's
	// completion (switching + propagation).
	propagationDelayPerHop = 20 * time.Microsecond
)

type flow struct {
	id            FlowID
	src, dst      int
	sizeBytes     float64
	remainingBits float64
	rateMbps      float64
	links         []*topology.Link
	hops          int
	arrival       float64 // seconds
}

type arrival struct {
	at   float64
	flow *flow
}

// Simulator runs one flow-level simulation. Inject all flows (in any
// order), then call Run once.
type Simulator struct {
	topo     *topology.Topology
	trace    *telemetry.Span
	arrivals []arrival
	nextID   FlowID
	ran      bool
}

// New creates a simulator over the topology. trace, when non-nil,
// receives one child span per Run with flow and stuck counts; nil costs
// nothing.
func New(topo *topology.Topology, trace *telemetry.Span) *Simulator {
	return &Simulator{topo: topo, trace: trace}
}

// Inject schedules a flow of sizeBytes from server src to server dst at
// the given time. It returns the flow's id.
func (s *Simulator) Inject(at time.Duration, src, dst int, sizeBytes float64) FlowID {
	if sizeBytes < 0 {
		panic(fmt.Sprintf("netsim: negative flow size %v", sizeBytes))
	}
	f := &flow{
		id:            s.nextID,
		src:           src,
		dst:           dst,
		sizeBytes:     sizeBytes,
		remainingBits: sizeBytes * 8,
		arrival:       at.Seconds(),
	}
	if src != dst {
		f.links = s.topo.PathLinks(src, dst)
		f.hops = len(f.links)
	}
	s.nextID++
	s.arrivals = append(s.arrivals, arrival{at: at.Seconds(), flow: f})
	return f.id
}

// Run simulates until every flow completes and returns the completions
// sorted by finish time. Flows that can never finish (a zero-capacity link
// on their path) are returned in stuck. Run may be called once.
func (s *Simulator) Run() (done []Completed, stuck []FlowID) {
	if s.ran {
		panic("netsim: Run called twice")
	}
	s.ran = true
	// The span opens before the event loop so its wall duration covers
	// the simulation itself.
	run := s.trace.Child("netsim-run")
	sort.SliceStable(s.arrivals, func(i, j int) bool { return s.arrivals[i].at < s.arrivals[j].at })

	// Active flows live in an arrival-ordered slice, not a map: progressive
	// filling subtracts fair shares from link residuals flow by flow, and
	// floating-point subtraction order must not depend on map iteration —
	// identical runs must produce bit-identical rates and completion times.
	var active []*flow
	now := 0.0
	nextArr := 0

	for nextArr < len(s.arrivals) || len(active) > 0 {
		// Admit everything that has arrived by `now` when idle.
		if len(active) == 0 && nextArr < len(s.arrivals) {
			now = math.Max(now, s.arrivals[nextArr].at)
		}
		for nextArr < len(s.arrivals) && s.arrivals[nextArr].at <= now+1e-15 {
			active = append(active, s.arrivals[nextArr].flow)
			nextArr++
		}
		computeRates(active)

		// Earliest completion among active flows.
		tc := math.Inf(1)
		for _, f := range active {
			if f.rateMbps > 0 {
				t := now + f.remainingBits/(f.rateMbps*1e6)
				if t < tc {
					tc = t
				}
			} else if f.remainingBits <= 0 {
				tc = now
			}
		}
		// Guard against float underflow: when the earliest residual
		// transfer is below the clock's resolution (ulp of now), time
		// cannot advance; complete those flows in place instead of
		// spinning forever.
		if tc <= now && !math.IsInf(tc, 1) {
			for _, f := range active {
				if f.rateMbps > 0 && now+f.remainingBits/(f.rateMbps*1e6) <= now {
					f.remainingBits = 0
				}
			}
		}
		ta := math.Inf(1)
		if nextArr < len(s.arrivals) {
			ta = s.arrivals[nextArr].at
		}

		if math.IsInf(tc, 1) && math.IsInf(ta, 1) {
			// No progress possible: every remaining flow is stuck.
			for _, f := range active {
				stuck = append(stuck, f.id)
			}
			break
		}

		next := math.Min(tc, ta)
		dt := next - now
		if dt < 0 {
			dt = 0
		}
		for _, f := range active {
			f.remainingBits -= f.rateMbps * 1e6 * dt
		}
		now = next

		// Collect completions (tolerance for float drift), compacting the
		// survivors in place so arrival order is preserved.
		kept := active[:0]
		for _, f := range active {
			if f.remainingBits <= 1e-6 {
				done = append(done, Completed{
					ID: f.id, Src: f.src, Dst: f.dst, SizeBytes: f.sizeBytes,
					Arrival: secToDur(f.arrival),
					// Propagation is added after the float clock is
					// truncated, so it counts in exact nanoseconds.
					Finish: secToDur(now) + time.Duration(f.hops)*propagationDelayPerHop,
				})
			} else {
				kept = append(kept, f)
			}
		}
		active = kept
	}
	// Flow id breaks finish-time ties so simultaneous completions come back
	// in one canonical order.
	sort.Slice(done, func(i, j int) bool {
		if done[i].Finish != done[j].Finish {
			return done[i].Finish < done[j].Finish
		}
		return done[i].ID < done[j].ID
	})
	sort.Slice(stuck, func(i, j int) bool { return stuck[i] < stuck[j] })
	if run.Enabled() {
		run.SetInt("flows", len(done)+len(stuck))
		run.SetInt("completed", len(done))
		run.SetInt("stuck", len(stuck))
		if n := len(done); n > 0 {
			run.SetDuration("last_finish", done[n-1].Finish)
		}
		run.End()
	}
	return done, stuck
}

func secToDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// computeRates assigns max-min fair rates to the active flows via
// progressive filling: repeatedly saturate the link with the smallest fair
// share and freeze its flows at that rate. Links are scanned in first-seen
// order (following the arrival-ordered flow slice) so that equal-share
// bottleneck ties resolve the same way every run.
func computeRates(active []*flow) {
	type linkState struct {
		residual float64
		unfixed  []*flow
	}
	states := make(map[*topology.Link]*linkState)
	var linkOrder []*topology.Link
	unfixedCount := 0
	for _, f := range active {
		f.rateMbps = 0
		if len(f.links) == 0 {
			f.rateMbps = localMbps // local flow, no shared links
			continue
		}
		unfixedCount++
		for _, l := range f.links {
			st := states[l]
			if st == nil {
				st = &linkState{residual: l.CapacityMbps}
				states[l] = st
				linkOrder = append(linkOrder, l)
			}
			st.unfixed = append(st.unfixed, f)
		}
	}

	fixed := make(map[FlowID]bool)
	for unfixedCount > 0 {
		// Find the bottleneck: the link with the smallest fair share;
		// strict < keeps the first-seen link on ties.
		var bottleneck *linkState
		share := math.Inf(1)
		for _, l := range linkOrder {
			st := states[l]
			n := 0
			for _, f := range st.unfixed {
				if !fixed[f.id] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			sh := st.residual / float64(n)
			if sh < share {
				share = sh
				bottleneck = st
			}
		}
		if bottleneck == nil {
			break // remaining flows only cross saturated links: rate 0
		}
		if share < 0 {
			share = 0
		}
		// Freeze the bottleneck's flows at the fair share and charge
		// their rate to every link they cross.
		for _, f := range bottleneck.unfixed {
			if fixed[f.id] {
				continue
			}
			fixed[f.id] = true
			unfixedCount--
			f.rateMbps = share
			for _, l := range f.links {
				states[l].residual -= share
			}
		}
	}
}
