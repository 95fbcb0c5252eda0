package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesAppendAndStats(t *testing.T) {
	var s Series
	s.Append(0, 10)
	s.Append(time.Minute, 20)
	s.Append(2*time.Minute, 30)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Mean() != 20 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 30 || s.Min() != 10 {
		t.Fatalf("max/min = %v/%v", s.Max(), s.Min())
	}
}

func TestSeriesRejectsBackwardTime(t *testing.T) {
	var s Series
	s.Append(time.Minute, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backward time must panic")
		}
	}()
	s.Append(0, 2)
}

func TestTimeWeightedMean(t *testing.T) {
	var s Series
	// Value 10 for 1 min, then 40 for 3 min (step function, last value
	// closes the interval at 4 min): area = 10·60 + 40·180 = 7800 over 240.
	s.Append(0, 10)
	s.Append(time.Minute, 40)
	s.Append(4*time.Minute, 99) // closing sample; its value has no weight
	want := (10.0*60 + 40.0*180) / 240
	if got := s.TimeWeightedMean(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("time-weighted mean = %v, want %v", got, want)
	}
}

func TestTimeWeightedMeanEdgeCases(t *testing.T) {
	var empty Series
	if empty.TimeWeightedMean() != 0 {
		t.Fatal("empty series")
	}
	var one Series
	one.Append(time.Second, 7)
	if one.TimeWeightedMean() != 7 {
		t.Fatal("single sample must return its value")
	}
	var same Series
	same.Append(time.Second, 3)
	same.Append(time.Second, 5)
	if same.TimeWeightedMean() != 4 {
		t.Fatal("zero span must fall back to plain mean")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of nothing must be 0")
	}
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Fatal("mean wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile must be 0")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Error("singleton percentile")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestPowerSaving(t *testing.T) {
	if got := PowerSaving(100, 80); got != 0.2 {
		t.Fatalf("saving = %v, want 0.2", got)
	}
	if got := PowerSaving(0, 10); got != 0 {
		t.Fatal("zero baseline must give 0")
	}
	if got := PowerSaving(100, 110); got != -0.1 {
		t.Fatalf("negative saving = %v, want -0.1", got)
	}
}

func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Mod(math.Abs(aRaw), 100)
		b := math.Mod(math.Abs(bRaw), 100)
		if a > b {
			a, b = b, a
		}
		return Percentile(xs, a) <= Percentile(xs, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMeanWithinRange(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Percentile(xs, 0)-1e-6 && m <= Percentile(xs, 100)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeWeightedTCT(t *testing.T) {
	// One heavy sample dominates: weighted mean sits near it.
	ms := []float64{1, 10}
	w := []float64{1, 9}
	st := SummarizeWeightedTCT(ms, w)
	if math.Abs(st.MeanMS-9.1) > 1e-9 {
		t.Fatalf("weighted mean = %v, want 9.1", st.MeanMS)
	}
	if st.P50MS != 10 {
		t.Fatalf("weighted p50 = %v, want 10 (90%% of weight)", st.P50MS)
	}
	if st.Count != 2 {
		t.Fatalf("count = %d", st.Count)
	}
}

func TestSummarizeWeightedTCTDropsNonPositiveWeights(t *testing.T) {
	st := SummarizeWeightedTCT([]float64{5, 100}, []float64{1, 0})
	if st.MeanMS != 5 || st.Count != 1 {
		t.Fatalf("stats = %+v, zero-weight sample must be dropped", st)
	}
	empty := SummarizeWeightedTCT([]float64{7}, []float64{0})
	if empty.Count != 0 || empty.MeanMS != 0 {
		t.Fatalf("all-dropped stats = %+v", empty)
	}
}

func TestSummarizeWeightedTCTPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	SummarizeWeightedTCT([]float64{1}, []float64{1, 2})
}

func TestSummarizeWeightedTCTMatchesUnweighted(t *testing.T) {
	ms := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	w := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	a := SummarizeWeightedTCT(ms, w)
	mean, p50 := Mean(ms), Percentile(ms, 50)
	if math.Abs(a.MeanMS-mean) > 1e-9 {
		t.Fatalf("uniform weights: mean %v vs %v", a.MeanMS, mean)
	}
	// Percentile conventions differ slightly (nearest-rank vs
	// interpolated); they must agree within one sample gap.
	if math.Abs(a.P50MS-p50) > 1.01 {
		t.Fatalf("uniform weights: p50 %v vs %v", a.P50MS, p50)
	}
}

// TestSeriesMaxMinEdgeCases pins the empty, single-sample and all-negative
// behaviors: an empty series reports 0 by contract, and extrema must come
// from the data, never from the zero seed.
func TestSeriesMaxMinEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		values  []float64
		wantMax float64
		wantMin float64
	}{
		{name: "empty", values: nil, wantMax: 0, wantMin: 0},
		{name: "single positive", values: []float64{4.5}, wantMax: 4.5, wantMin: 4.5},
		{name: "single negative", values: []float64{-4.5}, wantMax: -4.5, wantMin: -4.5},
		{name: "all negative", values: []float64{-3, -1, -7}, wantMax: -1, wantMin: -7},
		{name: "all positive", values: []float64{3, 1, 7}, wantMax: 7, wantMin: 1},
		{name: "mixed sign", values: []float64{-2, 0, 5, -9}, wantMax: 5, wantMin: -9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Series
			for i, v := range tc.values {
				s.Append(time.Duration(i)*time.Second, v)
			}
			if got := s.Max(); got != tc.wantMax {
				t.Errorf("Max() = %v, want %v", got, tc.wantMax)
			}
			if got := s.Min(); got != tc.wantMin {
				t.Errorf("Min() = %v, want %v", got, tc.wantMin)
			}
		})
	}
}

// TestPercentileEdgeCases pins the empty, single-sample and negative-value
// behaviors of the interpolating percentile.
func TestPercentileEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{name: "empty", xs: nil, p: 50, want: 0},
		{name: "single sample p0", xs: []float64{-3}, p: 0, want: -3},
		{name: "single sample p50", xs: []float64{-3}, p: 50, want: -3},
		{name: "single sample p100", xs: []float64{-3}, p: 100, want: -3},
		{name: "all negative p0", xs: []float64{-1, -5, -3}, p: 0, want: -5},
		{name: "all negative p50", xs: []float64{-1, -5, -3}, p: 50, want: -3},
		{name: "all negative p100", xs: []float64{-1, -5, -3}, p: 100, want: -1},
		{name: "all negative interpolated", xs: []float64{-4, -2}, p: 50, want: -3},
		{name: "below range clamps", xs: []float64{1, 2}, p: -10, want: 1},
		{name: "above range clamps", xs: []float64{1, 2}, p: 110, want: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Percentile(tc.xs, tc.p); got != tc.want {
				t.Errorf("Percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
			}
		})
	}
}
