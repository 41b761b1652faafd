package main

import (
	"math"
	"sort"
	"time"

	"snapea/internal/tensor"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, or 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// robustBlocks is how many consecutive stretches of a run a burst-prone
// statistic is taken over.
const robustBlocks = 5

// overBlocks splits a time-ordered sample into robustBlocks consecutive
// stretches, takes stat on each, and returns the median of those. On
// the shared sandbox a neighbour's burst slows a few seconds of a run
// by half; a tail percentile or a mean over the whole run follows every
// such burst, while the median over stretches ignores bursts that touch
// fewer than half of them.
func overBlocks(xs []float64, stat func([]float64) float64) float64 {
	k := min(robustBlocks, len(xs))
	if k == 0 {
		return 0
	}
	vals := make([]float64, k)
	for b := range vals {
		vals[b] = stat(xs[b*len(xs)/k : (b+1)*len(xs)/k])
	}
	return median(vals)
}

// reportable are the percentiles the benchmark ever reports, ascending,
// in per-mille so the rank arithmetic stays in integers.
var reportable = []int{500, 750, 900, 950, 990, 999}

// supportedPercentile returns the highest reportable percentile that
// has at least ten samples beyond it in a sample of n, or 0 when even
// the median does not (n < 20). A percentile above it rests on fewer
// than ten observations and is printed marked as under-supported.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, pm := range reportable {
		// Samples strictly beyond the nearest-rank percentile.
		if rank := (pm*n + 999) / 1000; n-rank >= 10 {
			best = float64(pm) / 10
		}
	}
	return best
}

// quartiles returns the first and third quartile of xs by the same
// exclusive method as Python's statistics.quantiles(xs, n=4), which is
// what the driver computes spreads with. Needs len(xs) ≥ 2.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(pos float64) float64 { // 1-based fractional rank, clamped
		n := len(s)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := float64(len(s) + 1)
	return at(m / 4), at(3 * m / 4)
}

// interval is one span's extent on the run's clock.
type interval struct{ Start, End time.Duration }

// selfTime is a span's duration minus the part of it its child spans
// cover: children are clipped to the parent and overlapping children are
// counted once.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered time.Duration
	cursor := parent.Start
	for _, c := range clipped {
		if c.End <= cursor {
			continue
		}
		if c.Start > cursor {
			cursor = c.Start
		}
		covered += c.End - cursor
		cursor = c.End
	}
	return parent.End - parent.Start - covered
}

// poissonSchedule returns n arrival offsets in [0, window), ascending:
// n independent uniform draws sorted, which is a Poisson process of rate
// n/window conditioned on its count. Fixing the count keeps the number
// of requests identical across seeds while the bursts (what builds
// queues and batches) still vary with the seed.
func poissonSchedule(rng *tensor.RNG, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
