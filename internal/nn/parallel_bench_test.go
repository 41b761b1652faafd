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

// BenchmarkNonConv times the three non-convolution bodies on the shapes
// that carry the forward's non-conv third: GoogLeNet's conv2/norm2 (two
// zeros in three, as after its ReLU), an inception-branch 3×3/s1/p1
// pool, AlexNet's fc7 — and a TinyNet-sized pool, which must cost the
// same at one worker and two because it is far too small to fan out.
func BenchmarkNonConv(b *testing.B) {
	rng := tensor.NewRNG(17)
	norm2 := tensor.New(tensor.Shape{N: 1, C: 48, H: 16, W: 16})
	postReLU(norm2, rng)
	fc7 := NewFC(1024, 1024, true)
	tensor.FillNorm(fc7.Weights, rng, 0, 0.05)
	cases := []struct {
		name  string
		layer Layer
		in    *tensor.Tensor
	}{
		{"lrn_48x16x16", DefaultLRN(), norm2},
		{"maxpool_3x3s1p1_64x16x16", &MaxPool2D{K: 3, Stride: 1, Pad: 1}, randInput(tensor.Shape{N: 1, C: 64, H: 16, W: 16}, 18)},
		{"fc_1024to1024", fc7, randInput(tensor.Shape{N: 1, C: 1024, H: 1, W: 1}, 19)},
		{"maxpool_2x2s2_8x16x16_inline", &MaxPool2D{K: 2, Stride: 2}, randInput(tensor.Shape{N: 1, C: 8, H: 16, W: 16}, 20)},
	}
	for _, c := range cases {
		ins := []*tensor.Tensor{c.in}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				parallel.SetLimit(workers)
				defer parallel.SetLimit(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if out := c.layer.Forward(ins); out == nil {
						b.Fatal("no output")
					}
				}
			})
		}
	}
}
