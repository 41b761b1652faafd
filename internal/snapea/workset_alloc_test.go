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
// Re-executing into the network's worksets took it to 186,976 bytes,
// 162,560 of them the recompiled conv1 plan; compiling into the node's
// spare plan took it to 15,568.
const evalLayerFreshBytes = 1984674

// evalLayerBound is a fifth of what evalLayer allocated with worksets but
// a fresh plan per call (186,976 bytes).
const evalLayerBound = 186976 / 5

// TestEvalLayerWorkingSet holds the local pass to its fixed working set:
// after one warm-up call, one evalLayer on reduced SqueezeNet's conv1 —
// at its first candidates, so the whole network below it re-executes on
// both images — must allocate under evalLayerBound. One worker, so the
// warm-up fills the workset the measured call draws from and the spare
// plan the measured call compiles into. The race detector changes what
// allocates, so the file is built without it and `make alloc-guard` runs
// it in CI.
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
	if got >= evalLayerBound {
		t.Fatalf("evalLayer(conv1) allocated %d bytes, want < %d (%d with fresh tensors and plans)",
			got, evalLayerBound, evalLayerFreshBytes)
	}
}

// forwardFreshBytes is what one Network.Forward on reduced VGG allocated
// when every plan, max-pool and Concat output was a fresh tensor:
// 1,242,736 bytes, measured as TestForwardWorkingSet measures. Running
// in a workset of the network's pool took it to 12,000; drawing the FC
// outputs from it too, and building no trace for an uncounted plan run,
// to 1,680.
const forwardFreshBytes = 1242736

// forwardBound bounds a warm uncounted Forward's bytes: its graph
// output, value table and executor closure.
const forwardBound = 3000

// TestForwardWorkingSet holds a forward to its fixed working set: after
// one warm-up, one Forward on reduced VGG must allocate under
// forwardBound. One worker, as TestEvalLayerWorkingSet.
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
	if got >= forwardBound {
		t.Fatalf("Forward allocated %d bytes, want < %d (%d with fresh tensors)",
			got, forwardBound, forwardFreshBytes)
	}
}

// TestRecompileIntoSpareAllocatesNothing holds Algorithm 1's recompile to
// its spare plan: once the spare has been compiled into, compiling every
// reduced-SqueezeNet layer into it again, exact or predictive, makes no
// allocation.
func TestRecompileIntoSpareAllocatesNothing(t *testing.T) {
	m, err := models.Build("squeezenet", models.Options{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	net := CompileExact(m)
	for _, node := range net.PlanOrder {
		base := net.Plans[node]
		pred := make(LayerParams, base.Conv.OutC)
		for k := range pred {
			pred[k] = KernelParam{Th: 0.01, N: min(4, base.Conv.KernelSize()-1)}
		}
		for _, params := range []LayerParams{AllExact(base.Conv.OutC), pred} {
			spare := base.recompile(nil, params, NegByMagnitude)
			if n := testing.AllocsPerRun(5, func() { base.recompile(spare, params, NegByMagnitude) }); n != 0 {
				t.Fatalf("%s: a recompile into the spare made %v allocations, want 0", node, n)
			}
		}
	}
}
