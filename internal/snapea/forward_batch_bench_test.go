package snapea

import (
	"fmt"
	"sync"
	"testing"

	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/tensor"
)

// BenchmarkForwardBatchVsConcurrent is the evidence behind serving one
// request with one Forward: for k images it times one Forward of a
// batch-k tensor ("batched") against k batch-1 Forwards running on k
// goroutines at once ("concurrent"), exact and predictive, and reports
// wall-clock microseconds per image. A batch of k hands ForCost k times
// the items per layer, so layers that run inline at batch 1 fan out
// across the worker pool; k concurrent forwards each run their layers
// inline on their own goroutine instead. Networks are built the way the
// inference server builds them (reduced scale, default seed).
//
//	go test -run '^$' -bench ForwardBatchVsConcurrent -benchtime 20x ./internal/snapea
func BenchmarkForwardBatchVsConcurrent(b *testing.B) {
	for _, name := range []string{"tinynet", "alexnet", "googlenet"} {
		m, err := models.Build(name, models.Options{})
		if err != nil {
			b.Fatal(err)
		}
		nets := []struct {
			mode string
			net  *Network
		}{
			{"exact", CompileExact(m)},
			{"predictive", Compile(m, speculateAll(m), NegByMagnitude)},
		}
		for _, k := range []int{1, 2, 4, 8} {
			batch := tensor.New(tensor.Shape{N: k, C: m.InputShape.C, H: m.InputShape.H, W: m.InputShape.W})
			tensor.FillNorm(batch, tensor.NewRNG(uint64(k)), 0, 1)
			images := make([]*tensor.Tensor, k)
			for i := range images {
				images[i] = tensor.New(m.InputShape)
				copy(images[i].Data(), batch.Batch(i).Data())
			}
			for _, n := range nets {
				b.Run(fmt.Sprintf("%s/%s/k=%d/batched", name, n.mode, k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						n.net.Forward(batch, RunOpts{}, nil)
					}
					reportPerImage(b, k)
				})
				b.Run(fmt.Sprintf("%s/%s/k=%d/concurrent", name, n.mode, k), func(b *testing.B) {
					var wg sync.WaitGroup
					for i := 0; i < b.N; i++ {
						wg.Add(k)
						for _, img := range images {
							go func(img *tensor.Tensor) {
								defer wg.Done()
								n.net.Forward(img, RunOpts{}, nil)
							}(img)
						}
						wg.Wait()
					}
					reportPerImage(b, k)
				})
			}
		}
	}
}

// speculateAll is a predictive plan for every ReLU convolution of m:
// each kernel predicts a negative output when its partial sum after
// min(4, size-1) speculation-prefix MACs is at most 0.
func speculateAll(m *models.Model) map[string]LayerParams {
	params := make(map[string]LayerParams)
	for _, n := range m.Graph.Nodes() {
		conv, ok := n.Layer.(*nn.Conv2D)
		if !ok || !conv.ReLU {
			continue
		}
		p := make(LayerParams, conv.OutC)
		for k := range p {
			p[k] = KernelParam{Th: 0, N: min(4, conv.KernelSize()-1)}
		}
		params[n.Name] = p
	}
	return params
}

func reportPerImage(b *testing.B, k int) {
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*k), "us/img")
}
