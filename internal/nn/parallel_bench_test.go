package nn

import (
	"fmt"
	"runtime"
	"testing"

	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// benchWorkerCounts is the 1/2/4/GOMAXPROCS grid the worker-count
// benchmarks sweep.
func benchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

func benchConv() (*Conv2D, *tensor.Tensor) {
	c := NewConv2D(32, 64, 3, 3, 1, 1, 1, true)
	rng := tensor.NewRNG(7)
	tensor.FillNorm(c.Weights, rng, 0, 0.5)
	for i := range c.Bias {
		c.Bias[i] = float32(rng.Norm() * 0.1)
	}
	in := tensor.New(tensor.Shape{N: 2, C: 32, H: 28, W: 28})
	tensor.FillUniform(in, tensor.NewRNG(8), 0, 1)
	return c, in
}

// BenchmarkForwardGEMM times the one dense convolution (32→64 3×3 on
// 28×28, batch 2) through the Layer interface the graph executor calls.
func BenchmarkForwardGEMM(b *testing.B) {
	c, in := benchConv()
	ins := []*tensor.Tensor{in}
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			parallel.SetLimit(workers)
			defer parallel.SetLimit(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := c.Forward(ins); out == nil {
					b.Fatal("no output")
				}
			}
		})
	}
}
