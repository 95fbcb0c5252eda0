package migrate

import (
	"reflect"
	"testing"
	"time"

	"goldilocks/internal/topology"
)

func retryPolicy(seed uint64, flake float64) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 2 * time.Second,
		FlakeProb:   flake,
		Seed:        seed,
	}
}

// TestRetryZeroValueIsLegacy pins the compatibility contract: the
// zero-value policy produces a report identical to one simulated before
// the retry machinery existed.
func TestRetryZeroValueIsLegacy(t *testing.T) {
	topo := topology.NewTestbed()
	moves := []Move{
		{Container: 0, From: 0, To: 1, ImageMB: 1250},
		{Container: 1, From: 2, To: 3, ImageMB: 625},
	}
	base := Simulate(topo, Schedule(moves), Options{})
	opts := Options{}
	opts.Retry = RetryPolicy{} // zero value
	withPolicy := Simulate(topology.NewTestbed(), Schedule(moves), opts)
	if !reflect.DeepEqual(base, withPolicy) {
		t.Fatalf("zero-value policy changed the report:\n got %+v\nwant %+v", withPolicy, base)
	}
	if base.Retries != 0 || len(base.ExhaustedMoves) != 0 {
		t.Fatalf("retry axes nonzero without a policy: %+v", base)
	}
}

// TestRetryDeterministic pins that the same seed replays the same
// attempt outcomes and the same backoff delays, and that a different
// seed (eventually) draws a different ladder.
func TestRetryDeterministic(t *testing.T) {
	p := retryPolicy(42, 0.5)
	s1, f1, ok1 := p.planAttempts(7)
	s2, f2, ok2 := p.planAttempts(7)
	if s1 != s2 || f1 != f2 || ok1 != ok2 {
		t.Fatalf("same policy, same container, different ladder: (%v,%d,%v) vs (%v,%d,%v)",
			s1, f1, ok1, s2, f2, ok2)
	}
	differs := false
	for c := 0; c < 64 && !differs; c++ {
		a, fa, oka := retryPolicy(1, 0.5).planAttempts(c)
		b, fb, okb := retryPolicy(2, 0.5).planAttempts(c)
		if a != b || fa != fb || oka != okb {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seed never influences the retry ladder")
	}
}

// TestRetryBackoffGrowsAndCaps checks the exponential-with-jitter shape:
// each retry's delay is within [0.5, 1)× of base·2^(k−1).
func TestRetryBackoffGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Second, FlakeProb: 1, Seed: 9}
	for attempt := 1; attempt <= 7; attempt++ {
		d := p.backoff(3, attempt)
		want := time.Second << (attempt - 1)
		if d < want/2 || d >= want {
			t.Fatalf("attempt %d backoff %v outside [%v, %v)", attempt, d, want/2, want)
		}
	}
}

// TestRetryDelaysInjection verifies failed attempts push the transfer's
// network injection (and thus the wave end) out by the backoff sum.
func TestRetryDelaysInjection(t *testing.T) {
	moves := []Move{{Container: 0, From: 0, To: 1, ImageMB: 1250}}
	// Find a seed whose first attempt fails and second succeeds.
	var p RetryPolicy
	found := false
	for seed := uint64(0); seed < 512 && !found; seed++ {
		p = retryPolicy(seed, 0.5)
		if _, failed, ok := p.planAttempts(0); ok && failed >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no seed with a fail-then-succeed ladder in 512 tries")
	}
	opts := Options{}
	opts.Retry = p
	rep := Simulate(topology.NewTestbed(), Schedule(moves), opts)
	base := Simulate(topology.NewTestbed(), Schedule(moves), Options{})
	if rep.Retries < 1 {
		t.Fatalf("retries = %d, want ≥ 1", rep.Retries)
	}
	// The backoff is at least half the base (jitter floor), so the wave
	// must end measurably later than the retry-free run.
	if rep.Duration < base.Duration+p.BaseBackoff/2 {
		t.Fatalf("duration %v not delayed past %v by backoff", rep.Duration, base.Duration)
	}
}

// TestRetryExhaustionSurfaces is the silent-loss regression: a wave whose
// every transfer exhausts its attempts must report each move in
// ExhaustedMoves — not vanish from the accounting.
func TestRetryExhaustionSurfaces(t *testing.T) {
	moves := []Move{
		{Container: 0, From: 0, To: 1, ImageMB: 1250},
		{Container: 1, From: 2, To: 3, ImageMB: 625},
	}
	opts := Options{}
	opts.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, FlakeProb: 1, Seed: 5}
	rep := Simulate(topology.NewTestbed(), Schedule(moves), opts)
	if !reflect.DeepEqual(rep.ExhaustedMoves, []int{0, 1}) {
		t.Fatalf("exhaustion not surfaced: %+v", rep)
	}
	if rep.Retries != 6 {
		t.Fatalf("retries = %d, want 6 (3 failed attempts × 2 transfers)", rep.Retries)
	}
	if rep.TotalImageMB != 0 {
		t.Fatalf("exhausted transfers counted %v MB of traffic", rep.TotalImageMB)
	}
	if rep.Duration != 0 {
		t.Fatalf("no transfer ran, yet duration = %v", rep.Duration)
	}
}

// TestReplanNeverExhausts pins the invariant behind the cluster loop's
// replan: retry draws depend only on (seed, container, attempt), so a
// transfer that reached the network and got stuck reaches it again when
// its replan is simulated under the same policy — it cannot exhaust.
func TestReplanNeverExhausts(t *testing.T) {
	topo := topology.NewTestbed()
	if err := topo.FailServer(2); err != nil {
		t.Fatal(err)
	}
	// Eight transfers into the dead server 2; the policy re-places every
	// container on surviving server 3.
	var moves []Move
	newPlace := make([]int, 8)
	for c := range newPlace {
		moves = append(moves, Move{Container: c, From: 4 + c, To: 2, ImageMB: 64})
		newPlace[c] = 3
	}
	stuck, exhausted := 0, 0
	for seed := uint64(0); seed < 32; seed++ {
		opts := Options{Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second, FlakeProb: 0.5, Seed: seed}}
		plan := Schedule(moves)
		rep := Simulate(topo, plan, opts)
		stuck += len(rep.StuckMoves)
		exhausted += len(rep.ExhaustedMoves)
		replanned, _, _, err := Replan(topo, plan, rep.StuckMoves, newPlace)
		if err != nil {
			t.Fatal(err)
		}
		rep2 := Simulate(topo, replanned, opts)
		if len(rep2.ExhaustedMoves) != 0 {
			t.Fatalf("seed %d: replan of %d stuck moves exhausted %v", seed, len(rep.StuckMoves), rep2.ExhaustedMoves)
		}
		if len(rep2.StuckMoves) != 0 {
			t.Fatalf("seed %d: replanned transfers to a live server stuck: %v", seed, rep2.StuckMoves)
		}
	}
	if stuck == 0 || exhausted == 0 {
		t.Fatalf("stuck = %d, exhausted = %d: the policy must both exhaust and strand transfers", stuck, exhausted)
	}
}
