//go:build !race

package snapea

import (
	"context"
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
// spare plan took it to 15,568; walking the compiled program in a pooled
// arena, to 3,024; counting conv1 alone (layerOps) and re-executing the
// suffix uncounted, to 2,208 for the two.
const evalLayerFreshBytes = 1984674

// evalLayerBound is a fifth of what evalLayer allocated with worksets but
// a fresh plan per call (186,976 bytes).
const evalLayerBound = 186976 / 5

// TestEvalLayerWorkingSet holds the local pass to its fixed working set:
// after one warm-up, scoring reduced SqueezeNet's conv1 at its first
// candidates — layerOps counts the layer alone, then evalLayer re-executes
// the whole network below it on both images — must allocate under
// evalLayerBound, the two together. One worker, so the warm-up makes the
// arena the measured calls walk in and the spare plan they compile into.
// The race detector changes what allocates, so the file is built without
// it and `make alloc-guard` runs it in CI.
func TestEvalLayerWorkingSet(t *testing.T) {
	parallel.SetLimit(1)
	defer parallel.SetLimit(0)
	o := calibratedOptimizer(t, "squeezenet", OptConfig{Epsilon: 0.03, SoftLoss: true})
	params := firstCandidates(o, "conv1")
	score := func() {
		o.layerOps("conv1", params)
		o.evalLayer("conv1", params)
	}
	score()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	score()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("layerOps and evalLayer (conv1) allocated %d bytes", got)
	if got >= evalLayerBound {
		t.Fatalf("layerOps and evalLayer (conv1) allocated %d bytes, want < %d (%d with fresh tensors and plans)",
			got, evalLayerBound, evalLayerFreshBytes)
	}
}

// forwardFreshBytes is what one Network.Forward on reduced VGG allocated
// when every plan, max-pool and Concat output was a fresh tensor:
// 1,242,736 bytes, measured as TestForwardWorkingSet measures. Running
// in a workset of the network's pool took it to 12,000; drawing the FC
// outputs from it too, and building no trace for an uncounted plan run,
// to 1,680; running the compiled program in a pooled arena, to 112.
const forwardFreshBytes = 1242736

// forwardBound is what a warm uncounted Forward may allocate: the output
// it returns, a 64-byte tensor header and its 10 logits in a 48-byte
// size class.
const forwardBound = 112

// TestForwardWorkingSet holds a forward to its arena: after one warm-up,
// one Forward on reduced VGG must allocate no more than forwardBound.
// One worker, as TestEvalLayerWorkingSet.
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
	if got > forwardBound {
		t.Fatalf("Forward allocated %d bytes, want ≤ %d (%d with fresh tensors)",
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

// TestGlobalPassAllocatesNoNodeValues holds the global pass to the
// caches prepare allocated: on reduced SqueezeNet, with a budget the
// local pass's starts already meet (no global iteration), the pass runs
// its start check in the arenas of the network's pool and must allocate
// less than one image's cache takes.
func TestGlobalPassAllocatesNoNodeValues(t *testing.T) {
	ctx := context.Background()
	o := calibratedOptimizer(t, "squeezenet", OptConfig{Epsilon: 0.5, SoftLoss: true})
	paramK, err := o.kernelProfilingPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	paramL, err := o.localOptimizationPass(ctx, paramK)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := o.globalOptimizationPass(ctx, paramL)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalIters != 0 {
		t.Fatalf("%d global iterations; the test needs a run with none", res.GlobalIters)
	}
	got, cache := after.TotalAlloc-before.TotalAlloc, uint64(4*len(o.caches[0].data))
	t.Logf("global pass allocated %d bytes; one image's cache is %d", got, cache)
	if got >= cache {
		t.Fatalf("global pass allocated %d bytes, one image's cache %d: it made node values", got, cache)
	}
}
