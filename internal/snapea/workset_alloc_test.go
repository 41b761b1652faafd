//go:build !race

package snapea

import (
	"runtime"
	"testing"

	"snapea/internal/dataset"
	"snapea/internal/models"
	"snapea/internal/parallel"
)

// evalLayerFreshBytes is what one evalLayer on reduced SqueezeNet's
// conv1 allocated when every recomputed node's output was a fresh
// tensor: 1,984,674 bytes, measured as TestEvalLayerWorkingSet measures.
// The local pass now re-executes into the network's worksets and the call
// allocates 188,145 bytes, 162,560 of them the recompiled conv1 plan.
const evalLayerFreshBytes = 1984674

// TestEvalLayerWorkingSet holds the local pass to its fixed working set:
// after one warm-up call, one evalLayer on reduced SqueezeNet's conv1 —
// at its first candidates, so the whole network below it re-executes on
// both images — must allocate under a tenth of evalLayerFreshBytes. One
// worker, so the warm-up fills the workset the measured call draws from.
// The race detector changes what allocates, so the file is built
// without it and `make alloc-guard` runs it in CI.
func TestEvalLayerWorkingSet(t *testing.T) {
	parallel.SetLimit(1)
	defer parallel.SetLimit(0)
	o := calibratedOptimizer(t, "squeezenet", OptConfig{Epsilon: 0.03, SoftLoss: true})
	params := firstCandidates(o, "conv1")
	o.evalLayer("conv1", params)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o.evalLayer("conv1", params)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("evalLayer(conv1) allocated %d bytes", got)
	if got >= evalLayerFreshBytes/10 {
		t.Fatalf("evalLayer(conv1) allocated %d bytes, want < %d (a tenth of %d with fresh tensors)",
			got, evalLayerFreshBytes/10, evalLayerFreshBytes)
	}
}

// forwardFreshBytes is what one Network.Forward on reduced VGG allocated
// when every plan, max-pool and Concat output was a fresh tensor:
// 1,242,736 bytes, measured as TestForwardWorkingSet measures. Forward
// now runs in a workset of the network's pool and allocates 12,000.
const forwardFreshBytes = 1242736

// TestForwardWorkingSet holds a forward to its fixed working set: after
// one warm-up, one Forward on reduced VGG must allocate under a tenth of
// forwardFreshBytes. One worker, as TestEvalLayerWorkingSet.
func TestForwardWorkingSet(t *testing.T) {
	parallel.SetLimit(1)
	defer parallel.SetLimit(0)
	m, err := models.Build("vggnet", models.Options{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	img := dataset.Generate(1, dataset.Config{HW: m.InputShape.H, Seed: 17})[0].Image
	net := CompileExact(m)
	net.Forward(img, RunOpts{}, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net.Forward(img, RunOpts{}, nil)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Forward allocated %d bytes", got)
	if got >= forwardFreshBytes/10 {
		t.Fatalf("Forward allocated %d bytes, want < %d (a tenth of %d with fresh tensors)",
			got, forwardFreshBytes/10, forwardFreshBytes)
	}
}
