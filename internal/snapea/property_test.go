package snapea

import (
	"math"
	"testing"
	"testing/quick"

	"snapea/internal/tensor"
)

// TestEarlyTerminationSoundness is the algebraic heart of the exact
// mode: with non-negative inputs and positives-before-negatives
// ordering, a negative partial sum inside the negative suffix implies
// the final convolution output is negative — so emitting zero is exactly
// what conv+ReLU would produce.
func TestEarlyTerminationSoundness(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%48) + 4
		rng := tensor.NewRNG(seed)
		w := make([]float32, n)
		x := make([]float32, n)
		for i := range w {
			w[i] = float32(rng.Norm())
			x[i] = float32(rng.Float64()) // non-negative, as after ReLU
		}
		bias := float32(rng.Norm() * 0.5)
		rk := Reorder(w, Exact, NegByMagnitude)
		gathered := rk.Gather(x)

		// Full dot product in reordered order (same sum).
		full := bias
		for i, g := range gathered {
			full += rk.Weights[i] * g
		}
		// Walk with the sign check; wherever we'd terminate, the final
		// sum must indeed be negative.
		acc := bias
		for i, g := range gathered {
			acc += rk.Weights[i] * g
			if i >= rk.PosEnd && acc < 0 {
				return full < 1e-5 // terminated ⇒ final output negative
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestOpNeverExceedsKernelSize and returns the dense count only when no
// early exit fires.
func TestOpBounds(t *testing.T) {
	f := func(seed uint64, nRaw, specRaw uint8) bool {
		n := int(nRaw%32) + 4
		rng := tensor.NewRNG(seed)
		w := make([]float32, n)
		x := make([]float32, n)
		for i := range w {
			w[i] = float32(rng.Norm())
			x[i] = float32(rng.Float64())
		}
		p := KernelParam{N: int(specRaw) % n, Th: float32(rng.Norm())}
		rk := Reorder(w, p, NegByMagnitude)
		ops, out := rk.Op(rk.Gather(x), 0)
		if ops < 0 || ops > n {
			return false
		}
		if rk.NumSpec > 0 && ops < rk.NumSpec {
			return false // the speculation prefix always executes fully
		}
		return out >= 0 // post-ReLU output is never negative
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestExactOpsNeverExceedDense: for every window, the exact engine does
// at most the dense MAC count, and the output equals relu(dense conv).
func TestExactWindowOpsBounded(t *testing.T) {
	conv := randConv(3, 6, 3, 1, 1, 1, 17)
	in := nonNegInput(tensor.Shape{N: 1, C: 3, H: 7, W: 7}, 18)
	plan := NewLayerPlan("l", conv, in.Shape(), nil, NegByMagnitude)
	_, tr := plan.Run(in, RunOpts{CollectWindows: true})
	for i, ops := range tr.Ops {
		if ops < 0 || int(ops) > tr.KernelSize {
			t.Fatalf("window %d: ops %d outside [0, %d]", i, ops, tr.KernelSize)
		}
	}
}

// TestTraceAccounting: SpecZero + SignZero never exceeds Windows, and
// totals are consistent.
func TestTraceAccounting(t *testing.T) {
	conv := randConv(4, 8, 3, 1, 1, 1, 23)
	in := nonNegInput(tensor.Shape{N: 2, C: 4, H: 8, W: 8}, 24)
	params := make(LayerParams, 8)
	for k := range params {
		params[k] = KernelParam{Th: 0, N: 4}
	}
	plan := NewLayerPlan("l", conv, in.Shape(), params, NegByMagnitude)
	_, tr := plan.Run(in, RunOpts{CollectWindows: true, CollectPrediction: true})
	if tr.SpecZero+tr.SignZero > tr.Windows {
		t.Fatalf("terminated windows %d exceed %d", tr.SpecZero+tr.SignZero, tr.Windows)
	}
	var sum int64
	for _, o := range tr.Ops {
		sum += int64(o)
	}
	if sum != tr.TotalOps {
		t.Fatalf("per-window ops sum %d != total %d", sum, tr.TotalOps)
	}
	if tr.InputElems != int64(2*4*8*8) {
		t.Fatalf("input elems %d", tr.InputElems)
	}
	if tr.WeightElems != int64(8*conv.KernelSize()) {
		t.Fatalf("weight elems %d", tr.WeightElems)
	}
}

// TestNetTraceMerge: adding two single-image traces equals one two-image
// trace in every aggregate except weight traffic (loaded once).
func TestNetTraceMerge(t *testing.T) {
	m := buildTestModel(t)
	net := CompileExact(m)
	a := nonNegInput(m.InputShape, 31)
	b := nonNegInput(m.InputShape, 32)

	merged := NewNetTrace()
	net.Forward(a, RunOpts{CollectWindows: true}, merged)
	net.Forward(b, RunOpts{CollectWindows: true}, merged)

	batch := tensor.New(tensor.Shape{N: 2, C: m.InputShape.C, H: m.InputShape.H, W: m.InputShape.W})
	copy(batch.Data()[:a.Shape().Elems()], a.Data())
	copy(batch.Data()[a.Shape().Elems():], b.Data())
	once := NewNetTrace()
	net.Forward(batch, RunOpts{CollectWindows: true}, once)

	tm, dm := merged.Totals()
	to, do := once.Totals()
	if tm != to || dm != do {
		t.Fatalf("merged totals (%d,%d) != batched (%d,%d)", tm, dm, to, do)
	}
	for node, trM := range merged.Layers {
		trO := once.Layers[node]
		if trM.Windows != trO.Windows || trM.InputElems != trO.InputElems {
			t.Fatalf("%s: merged %+v vs batched %+v", node, trM, trO)
		}
		if trM.WeightElems != trO.WeightElems {
			t.Fatalf("%s: weight elems must not accumulate across images", node)
		}
	}
}

// TestBatchInvariance: running images separately or as one batch gives
// identical outputs and op counts.
func TestBatchInvariance(t *testing.T) {
	conv := randConv(3, 5, 3, 1, 1, 1, 41)
	a := nonNegInput(tensor.Shape{N: 1, C: 3, H: 6, W: 6}, 42)
	b := nonNegInput(tensor.Shape{N: 1, C: 3, H: 6, W: 6}, 43)
	plan := NewLayerPlan("l", conv, a.Shape(), nil, NegByMagnitude)
	oa, ta := plan.Run(a, RunOpts{})
	ob, tb := plan.Run(b, RunOpts{})

	batch := tensor.New(tensor.Shape{N: 2, C: 3, H: 6, W: 6})
	copy(batch.Data()[:a.Shape().Elems()], a.Data())
	copy(batch.Data()[a.Shape().Elems():], b.Data())
	oBoth, tBoth := plan.Run(batch, RunOpts{})
	if ta.TotalOps+tb.TotalOps != tBoth.TotalOps {
		t.Fatalf("ops not batch invariant: %d + %d != %d", ta.TotalOps, tb.TotalOps, tBoth.TotalOps)
	}
	for i, v := range oa.Data() {
		if oBoth.Data()[i] != v {
			t.Fatal("batch changed outputs (first image)")
		}
	}
	off := oa.Shape().Elems()
	for i, v := range ob.Data() {
		if math.Abs(float64(oBoth.Data()[off+i]-v)) > 0 {
			t.Fatal("batch changed outputs (second image)")
		}
	}
}

// TestNaivePrefixIsPermutationToo mirrors the Reorder permutation
// property for the ablation variant.
func TestNaivePrefixIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8, specRaw uint8) bool {
		n := int(nRaw%48) + 2
		rng := tensor.NewRNG(seed)
		w := make([]float32, n)
		for i := range w {
			w[i] = float32(rng.Norm())
		}
		p := KernelParam{N: int(specRaw) % (n + 1)}
		rk := ReorderNaivePrefix(w, p, NegByMagnitude)
		if len(rk.Weights) != n {
			return false
		}
		seen := make([]bool, n)
		for i, idx := range rk.Index {
			if seen[idx] || rk.Weights[i] != w[idx] {
				return false
			}
			seen[idx] = true
		}
		// Naive prefix must be the N largest magnitudes.
		if rk.NumSpec > 0 {
			minSpec := math.Inf(1)
			for i := 0; i < rk.NumSpec; i++ {
				if m := math.Abs(float64(rk.Weights[i])); m < minSpec {
					minSpec = m
				}
			}
			for i := rk.NumSpec; i < n; i++ {
				if math.Abs(float64(rk.Weights[i])) > minSpec+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCompileRespectsParams: per-layer parameter maps reach the right
// plans; unknown layer names are ignored.
func TestCompileRespectsParams(t *testing.T) {
	m := buildTestModel(t)
	conv1 := m.ConvNodes()[0]
	params := map[string]LayerParams{
		conv1.Name: func() LayerParams {
			p := make(LayerParams, conv1.Conv.OutC)
			for i := range p {
				p[i] = KernelParam{Th: -1, N: 2}
			}
			return p
		}(),
		"no-such-layer": nil,
	}
	net := Compile(m, params, NegByMagnitude)
	if net.Plans[conv1.Name].Params[0].N != 2 {
		t.Fatal("params not applied")
	}
	for _, other := range net.PlanOrder[1:] {
		if !net.Plans[other].Params[0].IsExact() {
			t.Fatalf("layer %s unexpectedly predictive", other)
		}
	}
}

// TestLayerPlanShapeMismatchPanics: running a plan on the wrong
// geometry must fail loudly, not corrupt silently.
func TestLayerPlanShapeMismatchPanics(t *testing.T) {
	conv := randConv(3, 4, 3, 1, 1, 1, 51)
	in := nonNegInput(tensor.Shape{N: 1, C: 3, H: 6, W: 6}, 52)
	plan := NewLayerPlan("l", conv, in.Shape(), nil, NegByMagnitude)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bad := nonNegInput(tensor.Shape{N: 1, C: 3, H: 8, W: 8}, 53)
	plan.Run(bad, RunOpts{})
}

func TestParamValidation(t *testing.T) {
	conv := randConv(3, 4, 3, 1, 1, 1, 61)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong param count")
		}
	}()
	NewLayerPlan("l", conv, tensor.Shape{N: 1, C: 3, H: 6, W: 6}, make(LayerParams, 3), NegByMagnitude)
}

// TestThreeWayAgreement: the dense im2col+GEMM convolution and the
// SnaPEA exact engine are independently derived implementations; on
// non-negative inputs they must agree. The third leg — the direct loop
// — is held bit-for-bit to the dense path by internal/nn's
// TestGEMMMatchesDirect, where it lives as the oracle.
func TestThreeWayAgreement(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		conv := randConv(3+int(seed%3), 4+int(seed%5), 3, 1, 1, 1, seed*100)
		in := nonNegInput(tensor.Shape{N: 1, C: conv.InC, H: 9, W: 9}, seed*100+1)
		dense := conv.Forward([]*tensor.Tensor{in})
		plan := NewLayerPlan("l", conv, in.Shape(), nil, NegByMagnitude)
		early, _ := plan.Run(in, RunOpts{})
		if d := dense.AbsDiffMax(early); d > 1e-4 {
			t.Fatalf("seed %d: dense vs snapea %g", seed, d)
		}
	}
}

// TestPrunedKernelElision: zero weights never appear in the reordered
// stream, and the outputs are unchanged by their removal.
func TestPrunedKernelElision(t *testing.T) {
	rng := tensor.NewRNG(67)
	w := make([]float32, 40)
	for i := range w {
		if i%3 == 0 {
			w[i] = 0 // statically pruned
		} else {
			w[i] = float32(rng.Norm())
		}
	}
	rk := Reorder(w, KernelParam{N: 4}, NegByMagnitude)
	for _, v := range rk.Weights {
		if v == 0 {
			t.Fatal("zero weight survived reordering")
		}
	}
	wantLen := 0
	for _, v := range w {
		if v != 0 {
			wantLen++
		}
	}
	if len(rk.Weights) != wantLen {
		t.Fatalf("reordered %d weights, want %d nonzero", len(rk.Weights), wantLen)
	}
	// Output equality against the dense dot product.
	x := make([]float32, 40)
	for i := range x {
		x[i] = float32(rng.Float64())
	}
	full := float32(0.3)
	for i := range w {
		full += w[i] * x[i]
	}
	if full < 0 {
		full = 0
	}
	_, out := rk.Op(rk.Gather(x), 0.3)
	if d := float64(out - full); d > 1e-4 || d < -1e-4 {
		t.Fatalf("elided-zero output %g vs dense %g", out, full)
	}
}
