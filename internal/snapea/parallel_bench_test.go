package snapea

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"snapea/internal/nn"
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

// BenchmarkLayerPlanRun measures the engine's per-kernel sweep on a
// mixed exact/predictive layer at each worker count. Its ±1 inputs fail
// the blocked suffix's non-negativity scan, so what it times after the
// positive region is the fallback register drain;
// BenchmarkLayerPlanRunSuffix times the blocked phase.
func BenchmarkLayerPlanRun(b *testing.B) {
	conv := nn.NewConv2D(16, 48, 3, 3, 1, 1, 1, true)
	rng := tensor.NewRNG(71)
	tensor.FillNorm(conv.Weights, rng, 0, 0.5)
	for i := range conv.Bias {
		conv.Bias[i] = float32(rng.Norm() * 0.1)
	}
	inShape := tensor.Shape{N: 1, C: 16, H: 20, W: 20}
	params := AllExact(conv.OutC)
	for k := 0; k < conv.OutC; k += 2 {
		params[k] = KernelParam{Th: 0.05, N: 4}
	}
	plan := NewLayerPlan("bench", conv, inShape, params, NegByMagnitude)
	in := tensor.New(tensor.Shape{N: 2, C: 16, H: 20, W: 20})
	tensor.FillUniform(in, tensor.NewRNG(72), -1, 1)

	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			parallel.SetLimit(workers)
			defer parallel.SetLimit(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, tr := plan.Run(in, RunOpts{}); tr.TotalOps == 0 {
					b.Fatal("no work executed")
				}
			}
		})
	}
}

// BenchmarkLayerPlanRunSuffix measures the layer shape the blocked
// suffix phase exists for — exact 64→64 3x3 on a 16x16 post-ReLU-like
// input, one worker — and reports wall-clock per executed (Eq. 1) MAC,
// the figure the ledger's snapea.ns_per_mac_executed tracks per network.
func BenchmarkLayerPlanRunSuffix(b *testing.B) {
	plan, in := suffixPlan(b, 64)
	parallel.SetLimit(1)
	defer parallel.SetLimit(0)
	var macs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tr := plan.Run(in, RunOpts{})
		macs += tr.TotalOps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(macs), "ns/MAC")
}

// BenchmarkLayerPlanRunSparse measures the layer shape the survivor-only
// positive region exists for — predictive 64→64 3x3 on a 16x16
// post-ReLU-like input whose threshold check retires about 70 % of each
// strip (sparsePlan), one worker — in wall-clock per executed MAC.
func BenchmarkLayerPlanRunSparse(b *testing.B) {
	plan, in := sparsePlan(b, 64, 16)
	parallel.SetLimit(1)
	defer parallel.SetLimit(0)
	var macs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tr := plan.Run(in, RunOpts{})
		macs += tr.TotalOps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(macs), "ns/MAC")
}

// BenchmarkLayerPlanRunSmallPlanes measures the late-layer shapes whose
// strips used to be 2-8 lanes of border ring: a 5x5 whose plane is
// packed whole and a 1x1 that streams flat across rows. One image, one
// worker, mixed exact/predictive like BenchmarkLayerPlanRun.
func BenchmarkLayerPlanRunSmallPlanes(b *testing.B) {
	cases := []struct {
		name string
		conv *nn.Conv2D
		hw   int
	}{
		{"5x5_8to32_on_4x4", nn.NewConv2D(8, 32, 5, 5, 1, 2, 1, true), 4},
		{"1x1_64to64_on_8x8", nn.NewConv2D(64, 64, 1, 1, 1, 0, 1, true), 8},
	}
	for i, c := range cases {
		rng := tensor.NewRNG(uint64(81 + i))
		tensor.FillNorm(c.conv.Weights, rng, 0, 0.5)
		for i := range c.conv.Bias {
			c.conv.Bias[i] = float32(rng.Norm() * 0.1)
		}
		params := AllExact(c.conv.OutC)
		for k := 0; k < c.conv.OutC; k += 2 {
			params[k] = KernelParam{Th: 0.05, N: 4}
		}
		inShape := tensor.Shape{N: 1, C: c.conv.InC, H: c.hw, W: c.hw}
		plan := NewLayerPlan("bench", c.conv, inShape, params, NegByMagnitude)
		in := tensor.New(inShape)
		tensor.FillUniform(in, rng, -1, 1)
		b.Run(c.name, func(b *testing.B) {
			parallel.SetLimit(1)
			defer parallel.SetLimit(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, tr := plan.Run(in, RunOpts{}); tr.TotalOps == 0 {
					b.Fatal("no work executed")
				}
			}
		})
	}
}

// BenchmarkOptimizerRunCtx measures a full Algorithm 1 run (profiling,
// local, and global passes) on the TinyNet pipeline at each worker
// count. The setup — model build, calibration, head training — happens
// once outside the timer.
func BenchmarkOptimizerRunCtx(b *testing.B) {
	m, optImgs, optLabels, _, _ := pipeline(b, 41)
	ctx := context.Background()
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			parallel.SetLimit(workers)
			defer parallel.SetLimit(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net := CompileExact(m)
				opt := NewOptimizer(net, m.Head, optImgs, optLabels, OptConfig{Epsilon: 0.05})
				if _, err := opt.RunCtx(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
