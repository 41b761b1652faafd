package snapea

import (
	"fmt"
	"testing"

	"snapea/internal/nn"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

func randFC(in, out int, relu bool, seed uint64) *nn.FC {
	f := nn.NewFC(in, out, relu)
	rng := tensor.NewRNG(seed)
	tensor.FillNorm(f.Weights, rng, 0, 0.4)
	for i := range f.Bias {
		f.Bias[i] = float32(rng.Norm() * 0.2)
	}
	return f
}

// TestFCPlanMatchesDense: an FC compiled as a 1×1 LayerPlan must match
// the dense FC+ReLU on non-negative inputs while saving MACs, and be
// byte-identical to the scalar reference — outputs, per-window ops and
// every trace counter, under every option set and worker count, also on
// inputs with negatives, where the suffix retires windows the dense
// result would not.
func TestFCPlanMatchesDense(t *testing.T) {
	fc := randFC(64, 32, true, 7)
	in := nonNegInput(tensor.Shape{N: 3, C: 64, H: 1, W: 1}, 8)
	want := fc.Forward([]*tensor.Tensor{in})
	plan := NewFCPlan("fc", fc, NegByMagnitude)
	if &plan.Conv.Weights.Data()[0] != &fc.Weights.Data()[0] || &plan.Conv.Bias[0] != &fc.Bias[0] {
		t.Fatal("fc plan copied the layer's weights or bias instead of aliasing them")
	}
	got, tr := plan.Run(in, RunOpts{CollectWindows: true})
	if d := got.AbsDiffMax(want); d > 2e-4 {
		t.Fatalf("fc early termination diverged: %g", d)
	}
	if !got.Shape().Eq(want.Shape()) {
		t.Fatalf("fc plan output %v, dense %v", got.Shape(), want.Shape())
	}
	if tr.TotalOps >= tr.DenseOps {
		t.Fatalf("fc plan saved nothing: %d >= %d", tr.TotalOps, tr.DenseOps)
	}
	var sum int64
	for _, o := range tr.Ops {
		sum += int64(o)
	}
	if sum != tr.TotalOps {
		t.Fatalf("per-window ops inconsistent: %d vs %d", sum, tr.TotalOps)
	}
	if tr.Windows != 3*32 || tr.KernelSize != 64 || tr.OutC != 32 || tr.OutH != 1 || tr.OutW != 1 {
		t.Fatalf("trace geometry %+v", tr)
	}

	signed := tensor.New(in.Shape())
	tensor.FillUniform(signed, tensor.NewRNG(9), -1, 1)
	defer parallel.SetLimit(0)
	for _, workers := range []int{1, 2, 3, 8} {
		parallel.SetLimit(workers)
		assertStripEquiv(t, fmt.Sprintf("fc/nonneg/workers=%d", workers), plan, in)
		assertStripEquiv(t, fmt.Sprintf("fc/signed/workers=%d", workers), plan, signed)
	}
}

func TestFCPlanRequiresReLU(t *testing.T) {
	fc := randFC(8, 4, false, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-ReLU FC")
		}
	}()
	NewFCPlan("fc", fc, NegByMagnitude)
}

func TestFCPlanInputSizeMismatchPanics(t *testing.T) {
	fc := randFC(8, 4, true, 10)
	plan := NewFCPlan("fc", fc, NegByMagnitude)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	plan.Run(nonNegInput(tensor.Shape{N: 1, C: 9, H: 1, W: 1}, 11), RunOpts{})
}

// TestEnableFCEndToEnd: a network with FC plans still produces outputs
// identical to unaltered execution (tinynet's head has no ReLU, so only
// networks with ReLU FCs change — build a custom graph).
func TestEnableFCEndToEnd(t *testing.T) {
	m := buildTestModel(t)
	net := CompileExact(m)
	net.EnableFC()
	// TinyNet's classifier head has no ReLU — EnableFC must not touch it.
	if len(net.FCPlans) != 0 {
		t.Fatalf("tinynet has no ReLU FC, but %d plans built", len(net.FCPlans))
	}
	img := nonNegInput(m.InputShape, 12)
	want := m.Graph.Forward(img)
	got := net.Forward(img, RunOpts{}, nil)
	if d := got.AbsDiffMax(want); d > 1e-3 {
		t.Fatalf("diverged: %g", d)
	}
}

// TestEnableFCWithReLUHead: AlexNet's fc6/fc7 have fused ReLUs, so
// EnableFC must cover exactly those and keep outputs identical. fc6
// reads the last pooling layer's {N,C,H,W} output, so the forward also
// proves the executor flattens a non-flat input the way nn.FC does.
func TestEnableFCWithReLUHead(t *testing.T) {
	m := buildAlexNetModel(t)
	net := CompileExact(m)
	net.EnableFC()
	if len(net.FCPlans) != 2 {
		t.Fatalf("alexnet has 2 ReLU FCs, got %d plans", len(net.FCPlans))
	}
	img := nonNegInput(tensor.Shape{N: 2, C: m.InputShape.C, H: m.InputShape.H, W: m.InputShape.W}, 13)
	fc6In := net.CacheAll(img, RunOpts{})[m.Graph.Node("fc6").Inputs[0]].Shape()
	if fc6In.H*fc6In.W == 1 {
		t.Fatalf("fc6 input %v is already flat; the flatten path is not exercised", fc6In)
	}
	want := m.Graph.Forward(img)
	trace := NewNetTrace()
	got := net.Forward(img, RunOpts{}, trace)
	if d := got.AbsDiffMax(want); d > 5e-3 {
		t.Fatalf("diverged: %g", d)
	}
	// FC layers must appear in the trace with savings.
	fcTraced := 0
	for node, tr := range trace.Layers {
		if _, isConv := net.Plans[node]; isConv {
			continue
		}
		fcTraced++
		if tr.TotalOps >= tr.DenseOps {
			t.Errorf("fc %s saved nothing", node)
		}
		fc := m.Graph.Node(node).Layer.(*nn.FC)
		if tr.Batch != 2 || tr.Windows != int64(2*fc.Out) || tr.DenseOps != int64(2*fc.Out*fc.In) {
			t.Errorf("fc %s trace geometry %+v for a batch of 2 through %d→%d", node, tr, fc.In, fc.Out)
		}
	}
	if fcTraced != 2 {
		t.Fatalf("traced %d fc layers", fcTraced)
	}
}

// TestRunFixedAgreesWithFloat: the Q7.8 datapath must agree with the
// float engine on (almost) every zero/non-zero decision and op count.
func TestRunFixedAgreesWithFloat(t *testing.T) {
	conv := randConv(4, 8, 3, 1, 1, 1, 71)
	in := nonNegInput(tensor.Shape{N: 1, C: 4, H: 8, W: 8}, 72)
	params := make(LayerParams, 8)
	for k := range params {
		params[k] = KernelParam{Th: -0.1, N: 4}
	}
	plan := NewLayerPlan("l", conv, in.Shape(), params, NegByMagnitude)
	fo, ft := plan.Run(in, RunOpts{CollectWindows: true})
	xo, xt := plan.RunFixed(in, RunOpts{CollectWindows: true})

	if xt.Windows != ft.Windows || xt.DenseOps != ft.DenseOps {
		t.Fatal("geometry mismatch")
	}
	disagree := 0
	for i := range fo.Data() {
		if (fo.Data()[i] == 0) != (xo.Data()[i] == 0) {
			disagree++
		}
		if d := float64(fo.Data()[i] - xo.Data()[i]); d > 0.1 || d < -0.1 {
			t.Fatalf("window %d value gap %g vs %g", i, fo.Data()[i], xo.Data()[i])
		}
	}
	if frac := float64(disagree) / float64(ft.Windows); frac > 0.05 {
		t.Fatalf("zero decisions disagree on %.1f%% of windows", 100*frac)
	}
	// Op counts track closely (borderline windows may terminate one
	// step apart).
	delta := float64(xt.TotalOps-ft.TotalOps) / float64(ft.TotalOps)
	if delta > 0.1 || delta < -0.1 {
		t.Fatalf("fixed-point ops off by %.1f%%", 100*delta)
	}
}

func TestParamsFileRoundTrip(t *testing.T) {
	res := &Result{
		Params: map[string]LayerParams{
			"conv1": {{Th: -0.5, N: 4}, {Th: 0, N: 0}},
			"conv2": {{Th: 0.25, N: 8}},
		},
		Predictive: map[string]bool{"conv1": true},
		BaseAcc:    0.9,
		FinalAcc:   0.88,
	}
	f := res.File("tinynet", 0.03)
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseParams(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Network != "tinynet" || back.Epsilon != 0.03 {
		t.Fatalf("provenance lost: %+v", back)
	}
	if len(back.Layers) != 2 || back.Layers["conv1"][0].Th != -0.5 || back.Layers["conv1"][0].N != 4 {
		t.Fatalf("params lost: %+v", back.Layers)
	}
	if len(back.Predictive) != 1 || back.Predictive[0] != "conv1" {
		t.Fatalf("predictive list lost: %v", back.Predictive)
	}
}

func TestParseParamsRejectsGarbage(t *testing.T) {
	if _, err := ParseParams([]byte("{")); err == nil {
		t.Fatal("expected JSON error")
	}
	if _, err := ParseParams([]byte(`{"layers":{}}`)); err == nil {
		t.Fatal("expected empty-layers error")
	}
	if _, err := ParseParams([]byte(`{"layers":{"a":[{"Th":0,"N":-1}]}}`)); err == nil {
		t.Fatal("expected negative-N error")
	}
	if _, err := ParseParams([]byte(`{"layers":{"a":[]},"predictive_layers":["b"]}`)); err == nil {
		t.Fatal("expected unknown-predictive error")
	}
}
