// Package metrics provides the statistics the evaluation reports: time
// series of per-epoch measurements, means and percentiles of task
// completion times, and the derived power-saving and energy-per-request
// figures of Figs. 9–11 and 13.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series is an ordered sequence of (time, value) samples.
type Series struct {
	Name   string
	Times  []time.Duration
	Values []float64
}

// Append adds one sample. Times must be non-decreasing.
func (s *Series) Append(t time.Duration, v float64) {
	if n := len(s.Times); n > 0 && t < s.Times[n-1] {
		panic(fmt.Sprintf("metrics: sample at %v before last %v", t, s.Times[n-1]))
	}
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Mean returns the arithmetic mean of the values, or 0 when empty.
func (s *Series) Mean() float64 { return Mean(s.Values) }

// Max returns the largest value, or 0 when empty. The first sample seeds
// the running maximum, so all-negative series report their true maximum
// rather than a spurious 0.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest value, or 0 when empty. The first sample seeds
// the running minimum, so all-positive series report their true minimum
// rather than a spurious 0.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile of the values (0 ≤ p ≤ 100) by
// linear interpolation between closest ranks; see the package-level
// Percentile. Empty series return 0.
func (s *Series) Percentile(p float64) float64 { return Percentile(s.Values, p) }

// TimeWeightedMean integrates the (right-continuous step) series over its
// span and divides by the span; it equals Mean for uniform sampling.
func (s *Series) TimeWeightedMean() float64 {
	n := len(s.Values)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s.Values[0]
	}
	var area, span float64
	for i := 0; i+1 < n; i++ {
		dt := (s.Times[i+1] - s.Times[i]).Seconds()
		area += s.Values[i] * dt
		span += dt
	}
	if span == 0 {
		return Mean(s.Values)
	}
	return area / span
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks. Empty input returns 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TCTStats summarizes task completion times.
type TCTStats struct {
	MeanMS float64
	P50MS  float64
	P95MS  float64
	P99MS  float64
	Count  int
}

// SummarizeWeightedTCT computes the latency summary where sample i carries
// weight w[i] (e.g. one latency per flow weighted by the flow's request
// count, giving per-request statistics). Non-positive weights drop the
// sample. Count reports the number of contributing samples.
func SummarizeWeightedTCT(ms, w []float64) TCTStats {
	if len(ms) != len(w) {
		panic(fmt.Sprintf("metrics: %d samples with %d weights", len(ms), len(w)))
	}
	type wv struct{ v, w float64 }
	items := make([]wv, 0, len(ms))
	var totalW, weightedSum float64
	for i, v := range ms {
		if w[i] <= 0 {
			continue
		}
		items = append(items, wv{v: v, w: w[i]})
		totalW += w[i]
		weightedSum += v * w[i]
	}
	if len(items) == 0 || totalW == 0 {
		return TCTStats{}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	pct := func(p float64) float64 {
		target := p / 100 * totalW
		cum := 0.0
		for _, it := range items {
			cum += it.w
			if cum >= target {
				return it.v
			}
		}
		return items[len(items)-1].v
	}
	return TCTStats{
		MeanMS: weightedSum / totalW,
		P50MS:  pct(50),
		P95MS:  pct(95),
		P99MS:  pct(99),
		Count:  len(items),
	}
}

// PowerSaving returns the fractional saving of `power` against `baseline`
// (the paper reports all savings relative to E-PVM). Zero baseline gives 0.
func PowerSaving(baseline, power float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - power) / baseline
}
