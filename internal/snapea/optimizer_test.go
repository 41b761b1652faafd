package snapea

import (
	"context"
	"errors"
	"testing"

	"snapea/internal/calib"
	"snapea/internal/dataset"
	"snapea/internal/models"
	"snapea/internal/tensor"
	"snapea/internal/train"
)

// pipeline prepares a calibrated, head-trained TinyNet plus optimization
// and test sets — the full Algorithm 1 precondition.
func pipeline(t testing.TB, seed uint64) (*models.Model, []*tensor.Tensor, []int, []*tensor.Tensor, []int) {
	t.Helper()
	m, err := models.Build("tinynet", models.Options{Seed: seed, Classes: 4})
	if err != nil {
		t.Fatal(err)
	}
	samples := dataset.Generate(100, dataset.Config{Classes: 4, HW: m.InputShape.H, Seed: seed + 1})
	calImgs := make([]*tensor.Tensor, 8)
	for i := range calImgs {
		calImgs[i] = samples[i].Image
	}
	calib.Calibrate(m, calImgs)

	trainSet, rest := dataset.Split(samples, 0.6)
	optSet, testSet := dataset.Split(rest, 0.4)
	trImgs := imagesOf(trainSet)
	train.TrainHead(m.Head, train.Features(m, trImgs), labelsOf(trainSet), train.Config{})
	return m, imagesOf(optSet), labelsOf(optSet), imagesOf(testSet), labelsOf(testSet)
}

// wideGrid is Algorithm 1 over a wider candidate grid than the default
// one (N ∈ {4, 8, 16}, Th quantiles {0.2, 0.35, 0.5, 0.65}, 64 windows,
// T = 4) and the 0/1 loss. The package's optimizer tests pin their
// assertions to this grid.
func wideGrid(eps float64) OptConfig {
	return OptConfig{
		Epsilon:     eps,
		NCandidates: []int{4, 8, 16},
		ThQuantiles: []float64{0.2, 0.35, 0.5, 0.65},
		MaxWindows:  64,
		T:           4,
	}
}

func imagesOf(s []dataset.Sample) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(s))
	for i := range s {
		out[i] = s[i].Image
	}
	return out
}

func labelsOf(s []dataset.Sample) []int {
	out := make([]int, len(s))
	for i := range s {
		out[i] = s[i].Label
	}
	return out
}

func TestOptimizerRespectsEpsilon(t *testing.T) {
	m, optImgs, optLabels, _, _ := pipeline(t, 21)
	net := CompileExact(m)
	opt := NewOptimizer(net, m.Head, optImgs, optLabels, wideGrid(0.05))
	res := opt.Run()
	if res.BaseAcc-res.FinalAcc > 0.05+1e-9 {
		t.Fatalf("optimizer exceeded ε: base %.3f final %.3f", res.BaseAcc, res.FinalAcc)
	}
	if len(res.Params) != len(net.PlanOrder) {
		t.Fatalf("params for %d layers, want %d", len(res.Params), len(net.PlanOrder))
	}
}

func TestOptimizerEpsilonZeroIsExact(t *testing.T) {
	m, optImgs, optLabels, _, _ := pipeline(t, 22)
	net := CompileExact(m)
	opt := NewOptimizer(net, m.Head, optImgs, optLabels, wideGrid(0))
	res := opt.Run()
	if len(res.Predictive) != 0 {
		t.Fatalf("ε=0 selected %d predictive layers", len(res.Predictive))
	}
	if res.FinalAcc != res.BaseAcc {
		t.Fatalf("ε=0 changed accuracy: %.3f vs %.3f", res.FinalAcc, res.BaseAcc)
	}
}

func TestOptimizerSavesOps(t *testing.T) {
	m, optImgs, optLabels, testImgs, _ := pipeline(t, 23)
	net := CompileExact(m)

	// Exact-mode ops on the test set.
	exactTrace := NewNetTrace()
	for _, img := range testImgs {
		net.Forward(img, RunOpts{}, exactTrace)
	}
	exactOps, denseOps := exactTrace.Totals()

	opt := NewOptimizer(net, m.Head, optImgs, optLabels, wideGrid(0.10))
	res := opt.Run()
	if len(res.Predictive) == 0 {
		t.Skip("optimizer found no predictive layer within ε on this toy model")
	}
	predTrace := NewNetTrace()
	for _, img := range testImgs {
		net.Forward(img, RunOpts{}, predTrace) // net now carries the final plans
	}
	predOps, _ := predTrace.Totals()
	if predOps >= exactOps {
		t.Fatalf("predictive ops %d >= exact ops %d (dense %d)", predOps, exactOps, denseOps)
	}
	t.Logf("dense=%d exact=%d predictive=%d, predictive layers=%d/%d",
		denseOps, exactOps, predOps, len(res.Predictive), len(res.Params))
}

func TestOptimizerMonotoneInEpsilon(t *testing.T) {
	// A larger ε must never force *more* ops (it can only admit more
	// aggressive configurations).
	m, optImgs, optLabels, testImgs, _ := pipeline(t, 24)
	ops := func(eps float64) int64 {
		net := CompileExact(m)
		NewOptimizer(net, m.Head, optImgs, optLabels, wideGrid(eps)).Run()
		tr := NewNetTrace()
		for _, img := range testImgs {
			net.Forward(img, RunOpts{}, tr)
		}
		total, _ := tr.Totals()
		return total
	}
	o0 := ops(0)
	o3 := ops(0.15)
	if o3 > o0 {
		t.Fatalf("ε=0.15 ops %d > ε=0 ops %d", o3, o0)
	}
}

// meritOptimizer returns an optimizer whose network knows the given plan
// order — adjustParam scans layers in that order for deterministic ties.
func meritOptimizer(order ...string) *Optimizer {
	return &Optimizer{net: &Network{PlanOrder: order}}
}

func TestAdjustParamPicksBestMerit(t *testing.T) {
	current := map[string]LayerChoice{
		"a": {Op: 100, Err: 0.10},
		"b": {Op: 200, Err: 0.05},
	}
	remaining := map[string][]LayerChoice{
		// a: big error drop for small op increase → merit 0.05/50 = 1e-3
		"a": {{Op: 150, Err: 0.05}},
		// b: small drop for big increase → merit 0.01/300 ≈ 3.3e-5
		"b": {{Op: 500, Err: 0.04}},
	}
	o := meritOptimizer("a", "b")
	node, idx, ok := o.adjustParam(current, remaining)
	if !ok || node != "a" || idx != 0 {
		t.Fatalf("picked %s[%d] ok=%v, want a[0]", node, idx, ok)
	}
}

func TestAdjustParamPrefersStrictImprovement(t *testing.T) {
	current := map[string]LayerChoice{"a": {Op: 100, Err: 0.10}}
	remaining := map[string][]LayerChoice{
		"a": {{Op: 90, Err: 0.05}, {Op: 200, Err: 0.0}},
	}
	o := meritOptimizer("a")
	node, idx, ok := o.adjustParam(current, remaining)
	if !ok || node != "a" || idx != 0 {
		t.Fatalf("must prefer fewer-ops-and-less-error candidate, got %s[%d]", node, idx)
	}
}

func TestAdjustParamExhausted(t *testing.T) {
	o := meritOptimizer("a")
	_, _, ok := o.adjustParam(map[string]LayerChoice{"a": {}}, map[string][]LayerChoice{"a": {}})
	if ok {
		t.Fatal("no candidates should report !ok")
	}
}

func TestAdjustParamDeterministicTieBreak(t *testing.T) {
	// Two layers offering identical merit: the topologically first must
	// win every time (map iteration order must not leak in).
	current := map[string]LayerChoice{
		"z": {Op: 100, Err: 0.10},
		"a": {Op: 100, Err: 0.10},
	}
	remaining := map[string][]LayerChoice{
		"z": {{Op: 150, Err: 0.05}},
		"a": {{Op: 150, Err: 0.05}},
	}
	o := meritOptimizer("z", "a")
	for i := 0; i < 32; i++ {
		node, _, ok := o.adjustParam(current, remaining)
		if !ok || node != "z" {
			t.Fatalf("iteration %d: tie broke to %q, want plan-order winner %q", i, node, "z")
		}
	}
}

// TestOptimizerCanceledBeforeStart: a context cancelled before RunCtx
// stops the run before its first layer with the context's error.
func TestOptimizerCanceledBeforeStart(t *testing.T) {
	m, optImgs, optLabels, _, _ := pipeline(t, 28)
	o := NewOptimizer(CompileExact(m), m.Head, optImgs, optLabels, wideGrid(0.05))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context returned %v", err)
	}
}
