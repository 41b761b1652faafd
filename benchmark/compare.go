package main

import (
	"fmt"
	"io"
	"slices"
)

// verdict is compare mode's reading of one metric on one workload.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares side b against side a for one metric. Each side is the
// metric's value over that side's runs. The change is b's median against
// a's, as a share of a's median, signed so that positive is worse. When
// a's own run-to-run spread (its interquartile range over its median) is
// wider than the bound, a difference cannot be told from noise: the
// verdict is unresolved unless the runs do not interleave at all.
func judge(m metric, a, b []float64) (v verdict, worse, spread float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return unchanged, 0, 0
		}
		return unresolved, 0, 0
	}
	worse = (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	if ma < 0 {
		worse = -worse
	}
	if len(a) >= 2 {
		q1, q3 := quartiles(a)
		spread = (q3 - q1) / ma
		if spread < 0 {
			spread = -spread
		}
	}
	if spread > m.Bound && interleave(a, b) {
		return unresolved, worse, spread
	}
	switch {
	case worse > m.Bound:
		return regressed, worse, spread
	case worse < -m.Bound:
		return improved, worse, spread
	}
	return unchanged, worse, spread
}

// interleave reports whether the two samples overlap: false only when
// every run of one side lies strictly beyond every run of the other.
func interleave(a, b []float64) bool {
	return !(slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a))
}

// compareFiles prints, per workload row, every end-to-end metric's
// verdict with both medians, the change as a share of a's median, a's
// spread and the bound. It returns the number of regressed rows.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	fa, err := loadResults(pathA)
	if err != nil {
		return 0, err
	}
	fb, err := loadResults(pathB)
	if err != nil {
		return 0, err
	}
	timed := func(f *resultFile, workload string) (runs []*runResult) {
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Traced {
				runs = append(runs, r)
			}
		}
		return runs
	}
	values := func(runs []*runResult, name string) (vals []float64) {
		for _, r := range runs {
			if v, ok := r.Metrics[name]; ok {
				vals = append(vals, v.Value)
			}
		}
		return vals
	}
	nRegressed := 0
	fmt.Fprintf(w, "a = %s\nb = %s\n", pathA, pathB)
	for _, wl := range workloads {
		ra, rb := timed(fa, wl.Name), timed(fb, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s  (a: %d runs, b: %d runs)\n", wl.Name, len(ra), len(rb))
		digest := map[uint64]string{}
		for _, r := range ra {
			digest[r.Seed] = r.Digest
		}
		for _, r := range rb {
			if d, ok := digest[r.Seed]; ok && d != r.Digest {
				fmt.Fprintf(w, "  OUTPUTS DIFFER at seed %d: a digest %s, b digest %s\n", r.Seed, d, r.Digest)
				nRegressed++
			}
		}
		for _, m := range endToEnd {
			a, b := values(ra, m.Name), values(rb, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worse, spread := judge(m, a, b)
			if v == regressed {
				nRegressed++
			}
			direction := "worse"
			if worse < 0 {
				direction, worse = "better", -worse
			}
			fmt.Fprintf(w, "  %-22s a=%-12.6g b=%-12.6g %-8s b is %5.2f%% of a %-6s (a's spread %.2f%%, bound %.0f%%)  %s\n",
				m.Name, median(a), median(b), m.Unit, 100*worse, direction, 100*spread, 100*m.Bound, v)
		}
	}
	return nRegressed, nil
}
