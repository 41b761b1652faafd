package main

import (
	"math"
	"testing"
	"time"

	"snapea/internal/tensor"
)

func TestSupportedPercentile(t *testing.T) {
	// The rule: the highest reported percentile with at least ten
	// samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {12, 0}, {19, 0},
		{20, 50},   // 10 beyond the median
		{39, 50},   // p75 would leave 9
		{40, 75},   // 10 beyond p75
		{100, 90},  // 10 beyond p90, 5 beyond p95
		{199, 90},  // p95 would leave 9
		{200, 95},  // 10 beyond p95
		{600, 95},  // p99 would leave 6
		{1000, 99}, // 10 beyond p99
		{9999, 99},
		{10000, 99.9},
	} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	iv := func(a, b int) interval { return interval{d(a), d(b)} }
	for _, tc := range []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", iv(0, 10), nil, d(10)},
		{"disjoint children", iv(0, 10), []interval{iv(1, 3), iv(5, 8)}, d(5)},
		{"overlapping children count once", iv(0, 10), []interval{iv(1, 6), iv(4, 8)}, d(3)},
		{"nested child adds nothing", iv(0, 10), []interval{iv(2, 9), iv(3, 4)}, d(3)},
		{"children clipped to parent", iv(10, 20), []interval{iv(5, 12), iv(18, 30)}, d(6)},
		{"child outside parent ignored", iv(10, 20), []interval{iv(0, 5), iv(25, 30)}, d(10)},
		{"unsorted children", iv(0, 10), []interval{iv(7, 9), iv(0, 2)}, d(6)},
		{"fully covered", iv(0, 10), []interval{iv(0, 10)}, 0},
	} {
		if got := selfTime(tc.parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPoissonScheduleSeededAndCounted(t *testing.T) {
	window := 10 * time.Second
	a := poissonSchedule(tensor.NewRNG(7), 400, window)
	b := poissonSchedule(tensor.NewRNG(7), 400, window)
	c := poissonSchedule(tensor.NewRNG(8), 400, window)
	if len(a) != 400 {
		t.Fatalf("schedule has %d arrivals, want exactly 400 whatever the seed", len(a))
	}
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			differs = true
		}
		if a[i] < 0 || a[i] >= window {
			t.Fatalf("arrival %d at %v outside [0, %v)", i, a[i], window)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	if !differs {
		t.Error("a different seed gave the same schedule")
	}
	// Exponential gaps have a coefficient of variation near 1; a fixed
	// tick would have 0. This is what makes batches larger than one.
	var gaps []float64
	for i := 1; i < len(a); i++ {
		gaps = append(gaps, float64(a[i]-a[i-1]))
	}
	m := mean(gaps)
	var ss float64
	for _, g := range gaps {
		ss += (g - m) * (g - m)
	}
	if cv := math.Sqrt(ss/float64(len(gaps))) / m; cv < 0.7 || cv > 1.3 {
		t.Errorf("inter-arrival coefficient of variation %.2f, want about 1 (bursty)", cv)
	}
}
