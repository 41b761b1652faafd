package nn

import (
	"runtime"
	"testing"

	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// invarianceWorkerCounts is the worker-count grid the determinism tests
// sweep: serial, two, a deliberately awkward odd count, and whatever the
// machine defaults to.
func invarianceWorkerCounts() []int {
	counts := []int{1, 2, 7}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 7 {
		counts = append(counts, n)
	}
	return counts
}

// TestConvForwardWorkerInvariance asserts the convolution output — with
// its per-worker reused im2col buffers — is byte-identical for every
// worker count: parallelism must never change a result, only its
// wall-clock cost.
func TestConvForwardWorkerInvariance(t *testing.T) {
	cases := []struct {
		name                          string
		inC, outC, k, stride, pad, gr int
		n, hw                         int
		seed                          uint64
	}{
		{"grouped-3x3-n3", 8, 12, 3, 1, 1, 2, 3, 13, 91},
		{"strided-5x5-n4", 6, 10, 5, 2, 2, 1, 4, 15, 93},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := randConv(t, tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.gr, true, tc.seed)
			ins := []*tensor.Tensor{randInput(tensor.Shape{N: tc.n, C: tc.inC, H: tc.hw, W: tc.hw}, tc.seed+1)}
			defer parallel.SetLimit(0)

			parallel.SetLimit(1)
			ref := c.Forward(ins)
			for _, workers := range invarianceWorkerCounts() {
				parallel.SetLimit(workers)
				if d := diffBits(c.Forward(ins), ref); d != "" {
					t.Fatalf("workers=%d vs serial: %s", workers, d)
				}
			}
		})
	}
}

// TestIm2ColIntoReusesBuffer asserts the pooled path writes every slot
// (a dirty buffer must not leak stale values into padding zeros) and
// avoids reallocating when capacity suffices.
func TestIm2ColIntoReusesBuffer(t *testing.T) {
	c := randConv(t, 3, 4, 3, 1, 1, 1, true, 95)
	in := randInput(tensor.Shape{N: 1, C: 3, H: 7, W: 7}, 96)
	clean, rows, cols := Im2Col(c, in, 0, 0)

	dirty := make([]float32, rows*cols)
	for i := range dirty {
		dirty[i] = 999
	}
	got, r2, c2 := Im2ColInto(c, in, 0, 0, dirty)
	if r2 != rows || c2 != cols {
		t.Fatalf("dims (%d,%d) vs (%d,%d)", r2, c2, rows, cols)
	}
	if &got[0] != &dirty[0] {
		t.Fatal("Im2ColInto reallocated despite sufficient capacity")
	}
	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("reused buffer diverges at %d: %g vs %g", i, got[i], clean[i])
		}
	}
}
