package snapea

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"snapea/internal/faults"
	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/parallel"
	"snapea/internal/prune"
	"snapea/internal/tensor"
)

// invarianceWorkerCounts sweeps serial, two, an awkward odd count, and
// the machine default — the grid the PR 2 determinism guarantee is
// tested against.
func invarianceWorkerCounts() []int {
	counts := []int{1, 2, 7}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 7 {
		counts = append(counts, n)
	}
	return counts
}

// invariancePlan compiles a mixed exact/predictive layer plan plus a
// matching input.
func invariancePlan(t testing.TB) (*LayerPlan, *tensor.Tensor) {
	t.Helper()
	conv := nn.NewConv2D(8, 16, 3, 3, 1, 1, 1, true)
	rng := tensor.NewRNG(51)
	tensor.FillNorm(conv.Weights, rng, 0, 0.5)
	for i := range conv.Bias {
		conv.Bias[i] = float32(rng.Norm() * 0.1)
	}
	inShape := tensor.Shape{N: 1, C: 8, H: 11, W: 11}
	params := AllExact(conv.OutC)
	for k := 0; k < conv.OutC; k += 2 {
		params[k] = KernelParam{Th: 0.05, N: 4}
	}
	plan := NewLayerPlan("inv", conv, inShape, params, NegByMagnitude)
	in := tensor.New(tensor.Shape{N: 3, C: 8, H: 11, W: 11})
	tensor.FillUniform(in, tensor.NewRNG(52), -1, 1)
	return plan, in
}

// TestLayerPlanRunWorkerInvariance asserts the engine's output tensor
// and its complete LayerTrace — per-window op counts, early-termination
// and prediction counters included — are identical for every worker
// count: on the mixed signed-input plan, whose suffixes drain, and on the
// non-negative 3x3x64 layer, whose suffixes stream in blocks and replay.
func TestLayerPlanRunWorkerInvariance(t *testing.T) {
	opts := RunOpts{CollectWindows: true, CollectPrediction: true}
	defer parallel.SetLimit(0)
	for _, fixture := range []func() (*LayerPlan, *tensor.Tensor){
		func() (*LayerPlan, *tensor.Tensor) { return invariancePlan(t) },
		func() (*LayerPlan, *tensor.Tensor) { return suffixPlan(t, 8) },
	} {
		plan, in := fixture()
		parallel.SetLimit(1)
		refOut, refTr := plan.Run(in, opts)
		if refTr.SpecZero == 0 && refTr.SignZero == 0 {
			t.Fatalf("%s terminated nothing early; invariance test has no teeth", plan.Node)
		}
		for _, workers := range invarianceWorkerCounts() {
			parallel.SetLimit(workers)
			out, tr := plan.Run(in, opts)
			if !reflect.DeepEqual(out.Data(), refOut.Data()) {
				t.Fatalf("%s workers=%d: output diverges from serial run", plan.Node, workers)
			}
			if !reflect.DeepEqual(tr, refTr) {
				t.Fatalf("%s workers=%d: trace diverges:\n  got  %+v\n  want %+v", plan.Node, workers, tr, refTr)
			}
		}
	}
}

// TestRunCheckedWorkerInvariance covers the hardened entry point too:
// same equality guarantee, no error on clean input.
func TestRunCheckedWorkerInvariance(t *testing.T) {
	plan, in := invariancePlan(t)
	defer parallel.SetLimit(0)

	parallel.SetLimit(1)
	refOut, _, err := plan.RunChecked(in, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range invarianceWorkerCounts() {
		parallel.SetLimit(workers)
		out, _, err := plan.RunChecked(in, RunOpts{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(out.Data(), refOut.Data()) {
			t.Fatalf("workers=%d: RunChecked output diverges", workers)
		}
	}
}

// TestOptimizerWorkerInvariance runs Algorithm 1 end to end at every
// worker count and asserts the encoded result (profiled candidates,
// chosen parameters, predictive layers, accuracies, global-pass moves)
// and the params file are byte-identical: the greedy search must not be
// able to observe evaluation order.
func TestOptimizerWorkerInvariance(t *testing.T) {
	m, optImgs, optLabels, _, _ := pipeline(t, 31)
	defer parallel.SetLimit(0)

	run := func(workers int) (*Result, []byte, []byte) {
		parallel.SetLimit(workers)
		net := CompileExact(m)
		res := NewOptimizer(net, m.Head, optImgs, optLabels, wideGrid(0.05)).Run()
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		params, err := res.File("tinynet", 0.05).Marshal()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, enc, params
	}

	refRes, refEnc, refParams := run(1)
	if refRes.GlobalIters == 0 {
		t.Fatal("the global pass made no move: its incremental evaluation goes untested")
	}
	for _, workers := range invarianceWorkerCounts() {
		if workers == 1 {
			continue
		}
		_, enc, params := run(workers)
		if string(enc) != string(refEnc) {
			t.Fatalf("workers=%d: encoded result diverges from serial run:\n got %s\nwant %s", workers, enc, refEnc)
		}
		if string(params) != string(refParams) {
			t.Fatalf("workers=%d: params bytes diverge (%d vs %d bytes)", workers, len(params), len(refParams))
		}
	}
}

// TestOptimizerPrunedWorkerInvariance tunes statically pruned TinyNets —
// one zero weight in conv2's first kernel, and prune.Convs at 50 % — to
// completion at one and two workers, and requires identical parameters.
// Reorder drops zero weights, so Algorithm 1 profiles kernels shorter
// than their KernelSize; profiling used to hand Op a kernel-size window
// and panic ("Op input length mismatch").
func TestOptimizerPrunedWorkerInvariance(t *testing.T) {
	defer parallel.SetLimit(0)
	for _, tc := range []struct {
		name  string
		prune func(m *models.Model)
	}{
		{"one zero weight", func(m *models.Model) {
			m.Graph.Node("conv2").Layer.(*nn.Conv2D).Weights.Data()[0] = 0
		}},
		{"50% pruned", func(m *models.Model) { prune.Convs(m, 0.5) }},
	} {
		var ref *Result
		for _, workers := range []int{1, 2} {
			parallel.SetLimit(workers)
			m, optImgs, optLabels, _, _ := pipeline(t, 31)
			tc.prune(m)
			res := NewOptimizer(CompileExact(m), m.Head, optImgs, optLabels, wideGrid(0.05)).Run()
			if len(res.Params) != len(m.ConvNodes()) {
				t.Fatalf("%s, workers=%d: params for %d of %d layers", tc.name, workers, len(res.Params), len(m.ConvNodes()))
			}
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res.Params, ref.Params) || !reflect.DeepEqual(res.ParamK, ref.ParamK) {
				t.Fatalf("%s: parameters at 2 workers diverge from the serial run", tc.name)
			}
		}
	}
}

// TestFaultyPlanWorkerInvariance asserts fault injection stays site-keyed
// under parallel execution: the same injector seed produces the same
// corrupted outputs for every worker count.
func TestFaultyPlanWorkerInvariance(t *testing.T) {
	m := buildTestModel(t)
	in := tensor.New(m.InputShape)
	tensor.FillUniform(in, tensor.NewRNG(61), 0, 1)
	defer parallel.SetLimit(0)

	run := func(workers int) []float32 {
		parallel.SetLimit(workers)
		inj := faults.New(faults.Config{Seed: 17, WeightBitFlip: 0.001, StuckZero: 0.05, ActBitFlip: 0.0005})
		net := CompileFaulty(m, nil, NegByMagnitude, inj)
		out := net.Forward(in, RunOpts{}, nil)
		return out.Data()
	}
	ref := run(1)
	for _, workers := range invarianceWorkerCounts() {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: faulty execution diverges from serial run", workers)
		}
	}
}

// TestUncountedForwardWorkerInvariance holds the uncounted forward — what
// Network.Forward runs with no trace and metrics off — to the counted one
// bit for bit at every worker count, on a non-negative batch of two
// through AlexNet: its layers fan out, and their suffixes stream in
// blocks, so the exits the uncounted run leaves unreplayed are there.
func TestUncountedForwardWorkerInvariance(t *testing.T) {
	m := buildAlexNetModel(t)
	net := CompileExact(m)
	img := nonNegInput(tensor.Shape{N: 2, C: m.InputShape.C, H: m.InputShape.H, W: m.InputShape.W}, 82)
	defer parallel.SetLimit(0)

	parallel.SetLimit(1)
	trace := NewNetTrace()
	ref := net.Forward(img, RunOpts{}, trace).Data()
	blocked := 0
	for name, tr := range trace.Layers {
		if net.Plans[name].mono && tr.SignZero > 0 {
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatal("no layer with a blockable suffix retired a window: the uncounted run has nothing to skip")
	}
	for _, workers := range invarianceWorkerCounts() {
		parallel.SetLimit(workers)
		got := net.Forward(img, RunOpts{}, nil).Data()
		for i, v := range ref {
			if math.Float32bits(got[i]) != math.Float32bits(v) {
				t.Fatalf("workers=%d: uncounted output[%d] = %v, counted %v", workers, i, got[i], v)
			}
		}
	}
}

// TestEnableFCWorkerInvariance covers the FC layers, which run through
// LayerPlan.Run — and so fan out across workers — once EnableFC is
// called: AlexNet's logits and every layer trace, fc6/fc7 included, must
// be identical for every worker count.
func TestEnableFCWorkerInvariance(t *testing.T) {
	m := buildAlexNetModel(t)
	net := CompileExact(m)
	net.EnableFC()
	img := nonNegInput(tensor.Shape{N: 2, C: m.InputShape.C, H: m.InputShape.H, W: m.InputShape.W}, 81)
	opts := RunOpts{CollectWindows: true, CollectPrediction: true}
	defer parallel.SetLimit(0)

	run := func(workers int) ([]float32, map[string]*LayerTrace) {
		parallel.SetLimit(workers)
		trace := NewNetTrace()
		out := net.Forward(img, opts, trace)
		return out.Data(), trace.Layers
	}
	refOut, refLayers := run(1)
	for _, fc := range []string{"fc6", "fc7"} {
		if tr := refLayers[fc]; tr == nil || tr.SignZero == 0 {
			t.Fatalf("%s terminated nothing early (%+v); invariance test has no teeth", fc, tr)
		}
	}
	for _, workers := range invarianceWorkerCounts() {
		out, layers := run(workers)
		if !reflect.DeepEqual(out, refOut) {
			t.Fatalf("workers=%d: logits diverge from serial run", workers)
		}
		if !reflect.DeepEqual(layers, refLayers) {
			t.Fatalf("workers=%d: layer traces diverge from serial run", workers)
		}
	}
}
