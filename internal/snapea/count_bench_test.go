package snapea

import (
	"testing"

	"snapea/internal/calib"
	"snapea/internal/dataset"
	"snapea/internal/models"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// BenchmarkCountedVsUncounted is the per-layer evidence for running a
// forward uncounted when nothing reads its count: for each convolution of
// reduced VGG and SqueezeNet (exact) and GoogLeNet (predictive, every
// kernel speculating on min(4, size-1) taps at Th 0), and for the whole
// forward, it times the counted run (LayerPlan.Run, Network.Forward with
// a trace) against the uncounted one on the same input, one worker. The
// models are calibrated on the ledger's vgg calibration split (images
// 20–23 of dataset seed 42) and run one held-out image (seed 3). Each
// per-layer uncounted sub-benchmark also reports the gathered lane-taps
// of the suffix replays it leaves out, per run. A layer's two
// sub-benchmarks run back to back; on a host whose speed drifts, repeat
// the sweep and compare each layer pair by pair:
//
//	for i in $(seq 20); do go test -run '^$' -bench 'CountedVsUncounted/vggnet' -benchtime 20x ./internal/snapea; done
func BenchmarkCountedVsUncounted(b *testing.B) {
	parallel.SetLimit(1)
	defer parallel.SetLimit(0)
	for _, name := range []string{"vggnet", "googlenet", "squeezenet"} {
		b.Run(name, func(b *testing.B) {
			m, err := models.Build(name, models.Options{})
			if err != nil {
				b.Fatal(err)
			}
			cfg := dataset.Config{HW: m.InputShape.H, Seed: 42}
			var cal []*tensor.Tensor
			for _, s := range dataset.Generate(24, cfg)[20:] {
				cal = append(cal, s.Image)
			}
			calib.Calibrate(m, cal)
			net := CompileExact(m)
			if name == "googlenet" {
				net = Compile(m, speculateAll(m), NegByMagnitude)
			}
			cfg.Seed = 3
			img := dataset.Generate(1, cfg)[0].Image
			vals := net.CacheAll(img, RunOpts{})

			for _, node := range net.PlanOrder {
				plan := net.Plans[node]
				in := vals[m.Graph.Node(node).Inputs[0]]
				b.Run(node+"/counted", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						plan.Run(in, RunOpts{})
					}
				})
				b.Run(node+"/uncounted", func(b *testing.B) {
					_, _, counted := plan.run(in, nil, RunOpts{}, true)
					_, _, uncounted := plan.run(in, nil, RunOpts{}, false)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						plan.runTo(nil, in, RunOpts{}, false)
					}
					b.ReportMetric(float64(counted-uncounted), "replay-taps/op")
				})
			}
			b.Run("forward/counted", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					net.Forward(img, RunOpts{}, NewNetTrace())
				}
			})
			b.Run("forward/uncounted", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					net.Forward(img, RunOpts{}, nil)
				}
			})
		})
	}
}
