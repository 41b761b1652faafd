package snapea

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"snapea/internal/metrics"
	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/tensor"
)

func randConv(inC, outC, k, stride, pad, groups int, seed uint64) *nn.Conv2D {
	c := nn.NewConv2D(inC, outC, k, k, stride, pad, groups, true)
	rng := tensor.NewRNG(seed)
	tensor.FillNorm(c.Weights, rng, 0, 0.4)
	for i := range c.Bias {
		c.Bias[i] = float32(rng.Norm() * 0.2)
	}
	return c
}

func nonNegInput(shape tensor.Shape, seed uint64) *tensor.Tensor {
	in := tensor.New(shape)
	tensor.FillUniform(in, tensor.NewRNG(seed), 0, 1)
	return in
}

// TestExactModeMatchesDense is the paper's central exact-mode claim:
// sign-based reordering plus the sign check produces bit-identical
// post-ReLU outputs while executing fewer MACs — provided the inputs are
// non-negative (which ReLU guarantees between layers).
func TestExactModeMatchesDense(t *testing.T) {
	cases := []struct {
		name                          string
		inC, outC, k, stride, pad, gr int
		hw                            int
	}{
		{"small", 3, 8, 3, 1, 1, 1, 10},
		{"strided", 4, 6, 5, 2, 2, 1, 13},
		{"grouped", 4, 8, 3, 1, 1, 2, 9},
		{"pointwise", 8, 16, 1, 1, 0, 1, 6},
		{"nopad", 3, 4, 7, 2, 0, 1, 17},
	}
	for _, tc := range cases {
		for _, order := range []NegOrder{NegByMagnitude, NegOriginal} {
			t.Run(tc.name, func(t *testing.T) {
				conv := randConv(tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.gr, 31)
				in := nonNegInput(tensor.Shape{N: 2, C: tc.inC, H: tc.hw, W: tc.hw}, 32)
				want := conv.Forward([]*tensor.Tensor{in})
				plan := NewLayerPlan("l", conv, in.Shape(), nil, order)
				got, tr := plan.Run(in, RunOpts{})
				if d := got.AbsDiffMax(want); d > 2e-4 {
					t.Fatalf("exact mode diverged: max diff %g", d)
				}
				if tr.TotalOps >= tr.DenseOps {
					t.Fatalf("exact mode saved nothing: %d >= %d", tr.TotalOps, tr.DenseOps)
				}
				if tr.SpecZero != 0 {
					t.Fatalf("exact mode speculated %d windows", tr.SpecZero)
				}
			})
		}
	}
}

// TestExactModeNoSavingsWithoutNegativeOutputs: if every output is
// positive the sign check never fires and SnaPEA runs the full MACs.
func TestExactModeAllPositive(t *testing.T) {
	conv := randConv(3, 4, 3, 1, 0, 1, 7)
	// Force all-positive outputs with a huge bias.
	for i := range conv.Bias {
		conv.Bias[i] = 100
	}
	in := nonNegInput(tensor.Shape{N: 1, C: 3, H: 6, W: 6}, 8)
	plan := NewLayerPlan("l", conv, in.Shape(), nil, NegByMagnitude)
	_, tr := plan.Run(in, RunOpts{})
	if tr.TotalOps != tr.DenseOps {
		t.Fatalf("expected full ops, got %d of %d", tr.TotalOps, tr.DenseOps)
	}
	if tr.SignZero != 0 || tr.SpecZero != 0 {
		t.Fatal("no window should terminate early")
	}
}

// TestExactModeAllNegative: a hugely negative bias terminates every
// window almost immediately.
func TestExactModeAllNegative(t *testing.T) {
	conv := randConv(3, 4, 3, 1, 0, 1, 9)
	for i := range conv.Bias {
		conv.Bias[i] = -100
	}
	in := nonNegInput(tensor.Shape{N: 1, C: 3, H: 6, W: 6}, 10)
	plan := NewLayerPlan("l", conv, in.Shape(), nil, NegByMagnitude)
	out, tr := plan.Run(in, RunOpts{})
	if out.Max() != 0 {
		t.Fatal("all outputs must be zero")
	}
	if tr.SignZero != tr.Windows {
		t.Fatalf("expected all %d windows sign-terminated, got %d", tr.Windows, tr.SignZero)
	}
	if tr.TotalOps >= tr.DenseOps/2 {
		t.Fatalf("expected large savings, got %d of %d", tr.TotalOps, tr.DenseOps)
	}
}

func TestReorderIsPermutation(t *testing.T) {
	f := func(seedRaw uint64, nRaw uint8, specRaw uint8) bool {
		n := int(nRaw%64) + 2
		rng := tensor.NewRNG(seedRaw)
		w := make([]float32, n)
		for i := range w {
			w[i] = float32(rng.Norm())
		}
		p := KernelParam{N: int(specRaw) % (n + 2), Th: -0.1}
		rk := Reorder(w, p, NegByMagnitude)
		if len(rk.Weights) != n || len(rk.Index) != n {
			return false
		}
		seen := make([]bool, n)
		for i, idx := range rk.Index {
			if idx < 0 || int(idx) >= n || seen[idx] {
				return false
			}
			seen[idx] = true
			if rk.Weights[i] != w[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReorderSignStructure(t *testing.T) {
	f := func(seedRaw uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 2
		rng := tensor.NewRNG(seedRaw)
		w := make([]float32, n)
		for i := range w {
			w[i] = float32(rng.Norm())
		}
		rk := Reorder(w, Exact, NegByMagnitude)
		if rk.NumSpec != 0 {
			return false
		}
		// Positives (>= 0) strictly before PosEnd, negatives after.
		for i, v := range rk.Weights {
			if i < rk.PosEnd && v < 0 {
				return false
			}
			if i >= rk.PosEnd && v >= 0 {
				return false
			}
		}
		// NegByMagnitude: negative suffix is non-increasing in value
		// (most negative first).
		for i := rk.PosEnd + 1; i < n; i++ {
			if rk.Weights[i] < rk.Weights[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReorderSpecPrefixSpreadsMagnitudes(t *testing.T) {
	// With N groups over ascending magnitudes, the smallest spec member
	// must come from the low-magnitude end: it must be no larger than
	// the (1/N)-quantile magnitude's group maximum. Concretely, the
	// paper's counter-design (take the N largest magnitudes) would make
	// min |spec| equal the N-th largest magnitude; group selection must
	// do strictly better on a spread-out kernel.
	w := make([]float32, 64)
	rng := tensor.NewRNG(99)
	for i := range w {
		w[i] = float32(rng.Norm())
	}
	rk := Reorder(w, KernelParam{N: 8}, NegByMagnitude)
	specMin := math.Inf(1)
	for i := 0; i < rk.NumSpec; i++ {
		if m := math.Abs(float64(rk.Weights[i])); m < specMin {
			specMin = m
		}
	}
	// The 8th-largest magnitude of 64 normals is far above the 1/8
	// group maximum (≈ the 12.5th percentile of magnitudes).
	mags := make([]float64, len(w))
	for i, v := range w {
		mags[i] = math.Abs(float64(v))
	}
	// selection sort top-8
	for i := 0; i < 8; i++ {
		for j := i + 1; j < len(mags); j++ {
			if mags[j] > mags[i] {
				mags[i], mags[j] = mags[j], mags[i]
			}
		}
	}
	if specMin >= mags[7] {
		t.Fatalf("group selection should include small magnitudes: min |spec| = %g >= 8th-largest %g", specMin, mags[7])
	}
}

// TestOpMatchesEngine: Eq. (1)'s reference Op function and the optimized
// engine must agree on every window.
func TestOpMatchesEngine(t *testing.T) {
	conv := randConv(4, 6, 3, 1, 1, 1, 77)
	in := nonNegInput(tensor.Shape{N: 1, C: 4, H: 9, W: 9}, 78)
	params := make(LayerParams, 6)
	for k := range params {
		params[k] = KernelParam{Th: float32(k)*0.1 - 0.2, N: (k % 3) * 4}
	}
	plan := NewLayerPlan("l", conv, in.Shape(), params, NegByMagnitude)
	out, tr := plan.Run(in, RunOpts{CollectWindows: true})

	s := in.Shape()
	os := plan.OutShape(1)
	ksz := conv.KernelSize()
	orig := make([]float32, ksz)
	for k := 0; k < os.C; k++ {
		rk := Reorder(conv.Kernel(k), params[k], NegByMagnitude)
		for oy := 0; oy < os.H; oy++ {
			for ox := 0; ox < os.W; ox++ {
				// Gather the window in original kernel order.
				i := 0
				for ci := 0; ci < conv.InC; ci++ {
					for ky := 0; ky < conv.KH; ky++ {
						for kx := 0; kx < conv.KW; kx++ {
							iy := oy*conv.StrideH - conv.PadH + ky
							ix := ox*conv.StrideW - conv.PadW + kx
							if iy < 0 || iy >= s.H || ix < 0 || ix >= s.W {
								orig[i] = 0
							} else {
								orig[i] = in.At(0, ci, iy, ix)
							}
							i++
						}
					}
				}
				ops, val := rk.Op(rk.Gather(orig), conv.Bias[k])
				widx := (k*os.H+oy)*os.W + ox
				if int32(ops) != tr.Ops[widx] {
					t.Fatalf("k=%d oy=%d ox=%d: Op=%d engine=%d", k, oy, ox, ops, tr.Ops[widx])
				}
				if math.Abs(float64(val-out.At(0, k, oy, ox))) > 1e-4 {
					t.Fatalf("k=%d oy=%d ox=%d: Op val=%g engine=%g", k, oy, ox, val, out.At(0, k, oy, ox))
				}
			}
		}
	}
}

// TestPredictiveSavesMoreThanExact: with a permissive threshold the
// predictive mode must terminate earlier than the exact mode.
func TestPredictiveSavesMoreThanExact(t *testing.T) {
	conv := randConv(8, 8, 3, 1, 1, 1, 55)
	in := nonNegInput(tensor.Shape{N: 1, C: 8, H: 12, W: 12}, 56)
	exact := NewLayerPlan("l", conv, in.Shape(), nil, NegByMagnitude)
	_, trE := exact.Run(in, RunOpts{})

	params := make(LayerParams, 8)
	for k := range params {
		params[k] = KernelParam{Th: 10, N: 8} // predict everything zero
	}
	pred := NewLayerPlan("l", conv, in.Shape(), params, NegByMagnitude)
	out, trP := pred.Run(in, RunOpts{})
	if trP.TotalOps >= trE.TotalOps {
		t.Fatalf("predictive %d >= exact %d ops", trP.TotalOps, trE.TotalOps)
	}
	if trP.SpecZero != trP.Windows {
		t.Fatalf("th=+10 must speculate every window: %d of %d", trP.SpecZero, trP.Windows)
	}
	if out.Max() != 0 {
		t.Fatal("all-speculated output must be zero")
	}
	// Ops per speculated window must equal N.
	if trP.TotalOps != trP.Windows*8 {
		t.Fatalf("ops %d != windows*N %d", trP.TotalOps, trP.Windows*8)
	}
}

// TestPredictionStats validates the Table V accounting: TN + FN equals
// the speculated-window count, and truth counts match a dense run.
func TestPredictionStats(t *testing.T) {
	conv := randConv(6, 10, 3, 1, 1, 1, 91)
	in := nonNegInput(tensor.Shape{N: 2, C: 6, H: 10, W: 10}, 92)
	params := make(LayerParams, 10)
	for k := range params {
		params[k] = KernelParam{Th: 0.1, N: 6}
	}
	plan := NewLayerPlan("l", conv, in.Shape(), params, NegByMagnitude)
	_, tr := plan.Run(in, RunOpts{CollectPrediction: true})
	if tr.SpecTN+tr.SpecFN != tr.SpecZero {
		t.Fatalf("TN %d + FN %d != speculated %d", tr.SpecTN, tr.SpecFN, tr.SpecZero)
	}
	// Ground truth negatives from the dense pre-activation.
	pre := conv.PreActivation(in)
	if got := int64(pre.CountNegative()); got != tr.TruthNeg {
		t.Fatalf("TruthNeg %d != dense count %d", tr.TruthNeg, got)
	}
	if tr.TruthNeg == 0 || tr.TruthNeg == tr.Windows {
		t.Fatal("degenerate test setup")
	}
}

// TestNetworkExactEndToEnd compiles a whole model in exact mode and
// checks the classifier features are identical to unaltered execution.
func TestNetworkExactEndToEnd(t *testing.T) {
	m := buildTestModel(t)
	img := nonNegInput(m.InputShape, 5)
	want := m.Graph.Forward(img)
	net := CompileExact(m)
	trace := NewNetTrace()
	got := net.Forward(img, RunOpts{}, trace)
	if d := got.AbsDiffMax(want); d > 1e-3 {
		t.Fatalf("exact network diverged: %g", d)
	}
	if trace.Reduction() <= 0 {
		t.Fatalf("exact network should cut MACs, reduction=%g", trace.Reduction())
	}
	total, dense := trace.Totals()
	if total <= 0 || dense <= total {
		t.Fatalf("bad totals %d/%d", total, dense)
	}
}

// TestForwardFromMatchesForward holds ForwardFrom from every layer to the
// whole forward's features bit for bit, on an exact and on a predictive
// plan: re-executing a suffix of the graph over cached values is the
// same computation, counted or not.
func TestForwardFromMatchesForward(t *testing.T) {
	m := buildTestModel(t)
	img := nonNegInput(m.InputShape, 6)
	for mode, net := range map[string]*Network{
		"exact":      CompileExact(m),
		"predictive": Compile(m, speculateAll(m), NegByMagnitude),
	} {
		cache := net.CacheAll(img, RunOpts{})
		full := net.Feature(img, RunOpts{}, NewNetTrace())
		for _, node := range net.PlanOrder {
			part := net.ForwardFrom(cache, node, RunOpts{}, nil)
			if len(part) != len(full) {
				t.Fatalf("%s: ForwardFrom(%s): len %d vs %d", mode, node, len(part), len(full))
			}
			for i := range part {
				if math.Float32bits(part[i]) != math.Float32bits(full[i]) {
					t.Fatalf("%s: ForwardFrom(%s) feature %d = %v, Feature %v", mode, node, i, part[i], full[i])
				}
			}
		}
	}
}

// forwardFullSuffix is ForwardFrom as it used to be: every node after
// `from` in topological order re-executes, downstream of it or not. It
// is the oracle TestForwardFromSkipsUnreachable compares against.
func forwardFullSuffix(net *Network, base map[string]*tensor.Tensor, from string, opts RunOpts, trace *NetTrace) []float32 {
	vals := make(map[string]*tensor.Tensor)
	for k, v := range base {
		vals[k] = v
	}
	exec := net.exec(opts, trace)
	started := false
	for _, n := range net.Model.Graph.Nodes() {
		if n.Name == from {
			started = true
		}
		if !started {
			continue
		}
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for j, name := range n.Inputs {
			ins[j] = vals[name]
		}
		out, done := exec(n, ins)
		if !done {
			out = n.Layer.Forward(ins)
		}
		vals[n.Name] = out
	}
	return append([]float32(nil), vals[net.Model.FeatureNode].Data()...)
}

// plansRun runs f with metrics on and returns how many of net's plans it
// executed, read off engine.runs.
func plansRun(net *Network, f func()) int {
	metrics.Reset()
	metrics.Enable()
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()
	f()
	ran := 0
	for _, name := range net.PlanOrder {
		if metrics.C("engine.runs", metrics.Labels{"layer": name, "mode": net.Plans[name].mode}).Value() > 0 {
			ran++
		}
	}
	return ran
}

// TestForwardFromSkipsUnreachable checks, on the two branching graphs,
// that re-executing only what is downstream of a node changes nothing
// observable: features equal the full-suffix result bit for bit, with
// the node speculating so its value really differs from the cache; the
// trace holds the node alone, equal to the full-suffix trace's entry;
// and sibling branches are no longer executed.
func TestForwardFromSkipsUnreachable(t *testing.T) {
	for _, name := range []string{"squeezenet", "googlenet"} {
		m, err := models.Build(name, models.Options{Seed: 123})
		if err != nil {
			t.Fatal(err)
		}
		img := nonNegInput(m.InputShape, 9)
		net := CompileExact(m)
		cache := net.CacheAll(img, RunOpts{})
		opts := RunOpts{CollectWindows: true}
		skipped := 0
		for _, node := range net.PlanOrder {
			exact := net.Plans[node]
			params := AllExact(exact.Conv.OutC)
			for k := range params {
				params[k] = KernelParam{Th: 0.01, N: 1}
			}
			net.Plans[node] = exact.recompile(params, NegByMagnitude)
			gotTrace, wantTrace := NewNetTrace(), NewNetTrace()
			got := net.ForwardFrom(cache, node, opts, gotTrace)
			want := forwardFullSuffix(net, cache, node, opts, wantTrace)
			ran := plansRun(net, func() { net.ForwardFrom(cache, node, opts, nil) })
			net.Plans[node] = exact
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ForwardFrom(%s) features differ from the full-suffix result", name, node)
			}
			if len(gotTrace.Layers) != 1 || gotTrace.Layers[node] == nil {
				t.Fatalf("%s: ForwardFrom(%s) traced %d layers, want %s alone", name, node, len(gotTrace.Layers), node)
			}
			if !reflect.DeepEqual(gotTrace.Layers[node], wantTrace.Layers[node]) {
				t.Fatalf("%s: ForwardFrom(%s): trace of %s differs from the full-suffix result", name, node, node)
			}
			skipped += len(wantTrace.Layers) - ran
		}
		if skipped <= 0 {
			t.Fatalf("%s: no layer was spared re-execution", name)
		}
	}
}
