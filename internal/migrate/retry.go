// Seeded retry/backoff for migration transfers. Real checkpoint transfers
// fail transiently — an rsync connection reset, a briefly flapping link —
// and the control plane retries them with exponential backoff rather than
// abandoning the move. The model here keeps the simulator's determinism
// contract: whether an attempt fails, and how long its backoff jitter is,
// are pure functions of (Seed, container, attempt) drawn from a
// splitmix64-style stream, never from wall clock or global randomness, so
// the report stream is bit-identical across partitioner parallelism
// levels and across crash/resume re-execution.
package migrate

import (
	"time"

	"goldilocks/internal/det"
)

// RetryPolicy configures transfer retries. The zero value disables the
// machinery entirely: one attempt, no failure draws, injection at time 0
// — byte-identical to the pre-retry simulator.
type RetryPolicy struct {
	// MaxAttempts is the total tries per transfer (first attempt
	// included). Values below 1 mean 1. A transfer that fails all of its
	// attempts is *exhausted*: it never enters the network simulation and
	// is surfaced in Report.ExhaustedMoves — never silently dropped.
	MaxAttempts int
	// BaseBackoff is the delay after the first failure; each subsequent
	// failure doubles it. Non-positive means 1s.
	BaseBackoff time.Duration
	// FlakeProb is the independent per-attempt failure probability in
	// [0,1]. Zero disables failure draws completely.
	FlakeProb float64
	// Seed drives the failure and jitter draws. Same (Seed, container,
	// attempt) ⇒ same outcome, on any host, at any parallelism.
	Seed uint64
}

// enabled reports whether the policy can change anything relative to the
// legacy single-attempt path.
func (p RetryPolicy) enabled() bool { return p.FlakeProb > 0 }

// Draw-stream salts keep the failure and jitter streams independent.
const (
	saltFail   = 0xF1A7E
	saltJitter = 0x117E12
)

// draw folds the policy seed, container, attempt, and salt into a uniform
// value in [0, 1).
func (p RetryPolicy) draw(container, attempt int, salt uint64) float64 {
	h := det.Mix64(p.Seed ^ salt)
	h = det.Mix64(h ^ uint64(uint32(int32(container))))
	h = det.Mix64(h ^ uint64(uint32(int32(attempt)))<<32)
	return float64(h>>11) / float64(uint64(1)<<53)
}

// attemptFails decides attempt (0-indexed) for container's transfer.
func (p RetryPolicy) attemptFails(container, attempt int) bool {
	if !p.enabled() {
		return false
	}
	return p.draw(container, attempt, saltFail) < p.FlakeProb
}

// backoff returns the jittered delay charged before attempt (1-indexed
// retry): BaseBackoff·2^(attempt−1) scaled by a deterministic jitter in
// [0.5, 1).
func (p RetryPolicy) backoff(container, attempt int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = time.Second
	}
	d := base << (attempt - 1)
	u := p.draw(container, attempt, saltJitter)
	return time.Duration(float64(d) * (0.5 + 0.5*u))
}

// planAttempts resolves the whole retry ladder for one transfer up front
// (the draws are pure, so nothing is gained by interleaving them with the
// network simulation): the injection offset accumulated from backoffs,
// how many attempts failed, and whether any attempt succeeded.
func (p RetryPolicy) planAttempts(container int) (start time.Duration, failed int, ok bool) {
	max := p.MaxAttempts
	if max < 1 {
		max = 1
	}
	var delay time.Duration
	for a := 0; a < max; a++ {
		if a > 0 {
			delay += p.backoff(container, a)
		}
		if !p.attemptFails(container, a) {
			return delay, a, true
		}
	}
	return 0, max, false
}
