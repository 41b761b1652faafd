package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metric{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		m    metric
		a, b []float64
		want verdict
	}{
		{"same", lower, []float64{10, 10.1, 9.9, 10}, []float64{10, 10.2, 9.8, 10.1}, unchanged},
		{"within bound", lower, []float64{10, 10.1, 9.9, 10}, []float64{10.8, 10.9, 10.7, 10.8}, unchanged},
		{"slower beyond bound", lower, []float64{10, 10.1, 9.9, 10}, []float64{11.5, 11.6, 11.4, 11.5}, regressed},
		{"faster beyond bound", lower, []float64{10, 10.1, 9.9, 10}, []float64{8, 8.1, 7.9, 8}, improved},
		{"higher is better: drop", higher, []float64{100, 101, 99, 100}, []float64{85, 86, 84, 85}, regressed},
		{"higher is better: gain", higher, []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, improved},
		// a's own runs spread over 40% of its median and b's runs fall
		// among them: the 15% shift cannot be told from noise.
		{"noisy and interleaved", lower, []float64{8, 10, 12, 9, 11}, []float64{11.5, 9.5, 12.5, 10.5, 11.5}, unresolved},
		// Same noise, but every run of b is beyond every run of a.
		{"noisy but separated", lower, []float64{8, 10, 12, 9, 11}, []float64{20, 22, 21, 23, 20}, regressed},
		{"single runs", lower, []float64{10}, []float64{12}, regressed},
		{"zero base, zero change", lower, []float64{0, 0}, []float64{0, 0}, unchanged},
		{"zero base, nonzero change", lower, []float64{0, 0}, []float64{1, 1}, unresolved},
	} {
		if got, _, _ := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesReportsEveryRatioWithItsBase(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lat float64, digest string) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 3; seed++ {
			r := &runResult{Workload: "vgg-exact-b1", Seed: seed, Digest: digest, Correct: true, Metrics: map[string]value{
				"lat_p50_ms": {Value: lat + float64(seed)/100, Unit: "ms", N: 100},
				"ops_per_s":  {Value: 1000 / lat, Unit: "1/s", N: 100},
			}}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b, c := write("a.json", 46, "aa"), write("b.json", 46.5, "aa"), write("c.json", 90, "bb")

	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil || regressed != 0 {
		t.Fatalf("A/A-like compare: %d regressed, err %v\n%s", regressed, err, out.String())
	}
	bound := fmt.Sprintf("bound %.0f%%", 100*declared("lat_p50_ms").Bound)
	for _, want := range []string{"vgg-exact-b1", "lat_p50_ms", "a=46.02", "b=46.52", "1.09% of a worse", bound, "unchanged", "3 runs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	regressed, err = compareFiles(&out, a, c)
	if err != nil {
		t.Fatal(err)
	}
	// lat_p50_ms and ops_per_s regress, and each of the three seeds'
	// outputs differ.
	if regressed != 5 || !strings.Contains(out.String(), "OUTPUTS DIFFER") || !strings.Contains(out.String(), "regressed") {
		t.Errorf("regressed compare: %d rows\n%s", regressed, out.String())
	}
}
