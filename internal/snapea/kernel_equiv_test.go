package snapea

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"snapea/internal/faults"
	"snapea/internal/nn"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// The strip execution kernel (engine_strip.go) is a pure performance
// restructuring: outputs, per-window op counts, and every trace counter
// must be byte-identical to the retained scalar reference (runReference)
// for any geometry, parameter mix, option set, fault injection, and
// worker count. This suite is that contract, enforced over hand-picked
// geometry sweeps (fully-connected layers among them: they compile to
// the same plan), a native fuzz target, and fault-injected plans;
// TestLayerPlanRunWorkerInvariance (invariance_test.go) covers the
// worker-count half and runs under -race in CI.

// equivOpts are the option sets every equivalence case is checked
// under: the bare hot path, traced windows, and full prediction
// accounting (which exercises the spec-retire true-sign walks).
var equivOpts = []RunOpts{
	{},
	{CollectWindows: true},
	{CollectWindows: true, CollectPrediction: true},
}

// assertStripEquiv runs the production path and the scalar reference on
// the same plan and requires bit-identical outputs and traces.
func assertStripEquiv(t *testing.T, label string, plan *LayerPlan, in *tensor.Tensor) {
	t.Helper()
	for _, opts := range equivOpts {
		got, gtr := plan.Run(in, opts)
		want, wtr := plan.runReference(in, opts)
		if !reflect.DeepEqual(got.Data(), want.Data()) {
			for i := range want.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("%s opts=%+v: output[%d] = %v, reference %v",
						label, opts, i, got.Data()[i], want.Data()[i])
				}
			}
			t.Fatalf("%s opts=%+v: outputs differ", label, opts)
		}
		if !reflect.DeepEqual(gtr, wtr) {
			t.Fatalf("%s opts=%+v: traces differ\n got %+v\nwant %+v", label, opts, gtr, wtr)
		}
	}
}

// mixedParams gives every other kernel a speculative prefix so both the
// predictive and exact paths execute in one run.
func mixedParams(outC int, rng *tensor.RNG) LayerParams {
	params := AllExact(outC)
	for k := 0; k < outC; k += 2 {
		params[k] = KernelParam{Th: float32(rng.Float64() * 0.1), N: 2 + k%5}
	}
	return params
}

func equivConvPlan(t *testing.T, name string, conv *nn.Conv2D, inShape tensor.Shape, seed uint64, exact bool) (*LayerPlan, *tensor.Tensor) {
	return equivConvPlanBatch(t, name, conv, inShape, 2, seed, exact)
}

func equivConvPlanBatch(t *testing.T, name string, conv *nn.Conv2D, inShape tensor.Shape, batch int, seed uint64, exact bool) (*LayerPlan, *tensor.Tensor) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	tensor.FillNorm(conv.Weights, rng, 0, 0.5)
	for i := range conv.Bias {
		conv.Bias[i] = float32(rng.Norm() * 0.1)
	}
	params := AllExact(conv.OutC)
	if !exact {
		params = mixedParams(conv.OutC, rng)
	}
	plan := NewLayerPlan(name, conv, inShape, params, NegByMagnitude)
	in := tensor.New(tensor.Shape{N: batch, C: inShape.C, H: inShape.H, W: inShape.W})
	tensor.FillUniform(in, tensor.NewRNG(seed+1), -1, 1)
	return plan, in
}

// TestStripEquivalenceGeometries sweeps the geometry corners the strip
// decomposition has to get right: strides 1–3 (symmetric and not),
// pads 0–2, grouped channels, kH≠kW, kernels larger than the input
// overhang (empty interior), and rows/columns wider than one span
// (> maxStripLanes lanes).
func TestStripEquivalenceGeometries(t *testing.T) {
	type geom struct {
		name          string
		conv          *nn.Conv2D
		h, w          int
		strideW, padW int // 0 = keep symmetric
	}
	asym := func(c *nn.Conv2D, sw, pw int) *nn.Conv2D {
		c.StrideW, c.PadW = sw, pw
		return c
	}
	cases := []geom{
		{name: "3x3_s1_p1", conv: nn.NewConv2D(4, 6, 3, 3, 1, 1, 1, true), h: 12, w: 12},
		{name: "3x3_s1_p0_no_border", conv: nn.NewConv2D(4, 6, 3, 3, 1, 0, 1, true), h: 12, w: 12},
		{name: "3x3_s2_p1", conv: nn.NewConv2D(4, 6, 3, 3, 2, 1, 1, true), h: 13, w: 13},
		{name: "3x3_s3_p2", conv: nn.NewConv2D(4, 6, 3, 3, 3, 2, 1, true), h: 14, w: 14},
		{name: "5x3_rect_kernel", conv: nn.NewConv2D(4, 6, 5, 3, 1, 2, 1, true), h: 12, w: 12},
		{name: "1x1_s1_p0", conv: nn.NewConv2D(6, 8, 1, 1, 1, 0, 1, true), h: 9, w: 9},
		{name: "grouped_g2", conv: nn.NewConv2D(8, 6, 3, 3, 1, 1, 2, true), h: 10, w: 10},
		{name: "asym_stride_pad", conv: asym(nn.NewConv2D(4, 6, 3, 3, 2, 0, 1, true), 1, 2), h: 13, w: 11},
		{name: "empty_interior", conv: nn.NewConv2D(3, 4, 3, 3, 1, 2, 1, true), h: 2, w: 2},
		{name: "wide_row_multi_span", conv: nn.NewConv2D(2, 3, 3, 3, 1, 1, 1, true), h: 4, w: maxStripLanes + 44},
		{name: "tall_col_multi_span", conv: nn.NewConv2D(2, 3, 3, 3, 1, 1, 1, true), h: maxStripLanes + 44, w: 4},
	}
	for i, g := range cases {
		for _, exact := range []bool{true, false} {
			label := g.name
			if exact {
				label += "/exact"
			} else {
				label += "/predictive"
			}
			t.Run(label, func(t *testing.T) {
				inShape := tensor.Shape{N: 1, C: g.conv.InC, H: g.h, W: g.w}
				plan, in := equivConvPlan(t, g.name, g.conv, inShape, uint64(100+i), exact)
				if rows := g.h - 2; g.name == "wide_row_multi_span" && len(plan.strip.strips) < 2*rows {
					t.Fatalf("expected multiple in-place strips per interior row, got %d over %d rows", len(plan.strip.strips), rows)
				}
				if g.name == "tall_col_multi_span" && plan.strip.packed <= maxStripLanes {
					t.Fatalf("expected more than one chunk of packed lanes, got %d lanes", plan.strip.packed)
				}
				assertStripEquiv(t, label, plan, in)
			})
		}
	}
}

// TestStripEquivalenceNegZeroBias runs kernels with a literal -0 bias:
// the one accumulator value a +0 add changes. Packed windows execute
// their padded taps as w*0 like the reference does, so they must match
// it bit for bit here too.
func TestStripEquivalenceNegZeroBias(t *testing.T) {
	conv := nn.NewConv2D(3, 4, 3, 3, 1, 1, 1, true)
	rng := tensor.NewRNG(31)
	tensor.FillNorm(conv.Weights, rng, 0, 0.5)
	negZero := math.Float32frombits(1 << 31)
	for i := range conv.Bias {
		conv.Bias[i] = negZero
	}
	// 9x9 packs the whole plane; 20x20 streams the interior in place and
	// packs the ring.
	for _, hw := range []int{9, 20} {
		inShape := tensor.Shape{N: 1, C: 3, H: hw, W: hw}
		plan := NewLayerPlan("negzero", conv, inShape, mixedParams(conv.OutC, rng), NegByMagnitude)
		in := tensor.New(tensor.Shape{N: 2, C: 3, H: hw, W: hw})
		tensor.FillUniform(in, tensor.NewRNG(32), -1, 1)
		assertStripEquiv(t, fmt.Sprintf("negzero_%d", hw), plan, in)
	}
}

// TestStripEquivalencePackedShapes covers the shapes the patch matrix
// and the flat 1x1 path introduce, at batch 3 unless the case says
// otherwise: planes packed whole (1x1, 2x2, 4x4 outputs under 3x3 / 5x5 /
// 7x7 kernels padded by at least k/2), a ring and a strided plane of
// more than one chunk of packed lanes, a flat plane that is not a
// multiple of the chunk size, groups on both the packed and the
// in-place+ring path, and fully-connected layers as NewFCPlan compiles
// them — a 1x1 kernel on a 1x1 plane, so every strip is a single lane
// and the register drain starts at its narrowest stage. want asserts the
// compile-time decomposition the case is there to exercise.
func TestStripEquivalencePackedShapes(t *testing.T) {
	type shape struct {
		name          string
		conv          *nn.Conv2D
		h, w          int
		strips, lanes int // expected in-place strips (-1: some) and packed lanes
		batch         int // 0 = 3
	}
	var cases []shape
	for _, k := range []int{3, 5, 7} {
		for _, hw := range []int{1, 2, 4} {
			cases = append(cases, shape{
				name: fmt.Sprintf("whole_%dx%d_on_%dx%d", k, k, hw, hw),
				conv: nn.NewConv2D(3, 5, k, k, 1, k/2, 1, true), h: hw, w: hw, lanes: hw * hw,
			})
		}
	}
	cases = append(cases,
		shape{name: "whole_3x3_pad2_on_2x2", conv: nn.NewConv2D(3, 5, 3, 3, 1, 2, 1, true), h: 2, w: 2, lanes: 16},
		shape{name: "ring_276_lanes", conv: nn.NewConv2D(2, 3, 3, 3, 1, 1, 1, true), h: 70, w: 70, strips: -1, lanes: 4*70 - 4},
		shape{name: "flat_1x1_323", conv: nn.NewConv2D(5, 4, 1, 1, 1, 0, 1, true), h: 19, w: 17, strips: 2},
		shape{name: "grouped_whole", conv: nn.NewConv2D(4, 6, 3, 3, 1, 1, 2, true), h: 6, w: 6, lanes: 36},
		shape{name: "grouped_ring", conv: nn.NewConv2D(4, 6, 3, 3, 1, 1, 2, true), h: 20, w: 20, strips: -1, lanes: 4*20 - 4},
		shape{name: "grouped_flat", conv: nn.NewConv2D(6, 4, 1, 1, 1, 0, 2, true), h: 5, w: 7, strips: 1},
		shape{name: "stride2_pad1_400_lanes", conv: nn.NewConv2D(3, 4, 3, 3, 2, 1, 1, true), h: 40, w: 40, lanes: 400},
		shape{name: "stride2_pad2_5x5", conv: nn.NewConv2D(3, 4, 5, 5, 2, 2, 1, true), h: 9, w: 9, lanes: 25},
	)
	for _, batch := range []int{1, 3, 5} {
		cases = append(cases,
			shape{name: fmt.Sprintf("fc_300to17_b%d", batch), conv: nn.NewConv2D(300, 17, 1, 1, 1, 0, 1, true), h: 1, w: 1, strips: 1, batch: batch},
			shape{name: fmt.Sprintf("fc_48to5_b%d", batch), conv: nn.NewConv2D(48, 5, 1, 1, 1, 0, 1, true), h: 1, w: 1, strips: 1, batch: batch},
		)
	}
	for i, g := range cases {
		for _, exact := range []bool{true, false} {
			label := g.name + "/predictive"
			if exact {
				label = g.name + "/exact"
			}
			t.Run(label, func(t *testing.T) {
				inShape := tensor.Shape{N: 1, C: g.conv.InC, H: g.h, W: g.w}
				batch := g.batch
				if batch == 0 {
					batch = 3
				}
				plan, in := equivConvPlanBatch(t, g.name, g.conv, inShape, batch, uint64(500+i), exact)
				sp := plan.strip
				if sp.packed != g.lanes || (g.strips >= 0 && len(sp.strips) != g.strips) || (g.strips < 0 && len(sp.strips) == 0) {
					t.Fatalf("decomposed into %d in-place strips and %d packed lanes, want %d and %d", len(sp.strips), sp.packed, g.strips, g.lanes)
				}
				assertStripEquiv(t, label, plan, in)
			})
		}
	}
}

// fuzzStripCase builds one layer from fuzzer-chosen geometry, draws its
// weights, biases (now and then a literal -0) and parameters from seed
// and its input from data, and holds Run to runReference.
func fuzzStripCase(t *testing.T, groups, cin, cout, kh, kw, sh, sw, ph, pw, h, w, batch uint8, seed uint64, data []byte) {
	g := 1 + int(groups%2)
	inC, outC := g*(1+int(cin%3)), g*(1+int(cout%3))
	conv := nn.NewConv2D(inC, outC, 1+int(kh%5), 1+int(kw%5), 1, 0, g, true)
	conv.StrideH, conv.StrideW = 1+int(sh%3), 1+int(sw%3)
	conv.PadH, conv.PadW = int(ph%4), int(pw%4)
	inShape := tensor.Shape{N: 1, C: inC, H: conv.KH + int(h%24), W: conv.KW + int(w%24)}
	label := fmt.Sprintf("c%d-%d_k%dx%d_s%dx%d_p%dx%d_g%d_%dx%d_seed%d",
		inC, outC, conv.KH, conv.KW, conv.StrideH, conv.StrideW, conv.PadH, conv.PadW, g, inShape.H, inShape.W, seed)

	rng := tensor.NewRNG(seed)
	tensor.FillNorm(conv.Weights, rng, 0, 0.6)
	params := AllExact(outC)
	for k := range params {
		conv.Bias[k] = float32(rng.Norm() * 0.2)
		switch rng.Uint64() % 8 {
		case 0:
			conv.Bias[k] = math.Float32frombits(1 << 31)
		case 1, 2:
			params[k] = KernelParam{Th: float32(rng.Float64() * 0.2), N: 1 + int(rng.Uint64()%uint64(conv.KernelSize()))}
		case 3, 4:
			params[k] = KernelParam{Th: 0, N: 1 + int(rng.Uint64()%4)}
		}
	}
	plan := NewLayerPlan("fuzz", conv, inShape, params, NegByMagnitude)
	in := tensor.New(tensor.Shape{N: 1 + int(batch%3), C: inC, H: inShape.H, W: inShape.W})
	tensor.FillUniform(in, rng, -1, 1)
	if len(data) > 0 {
		for i := range in.Data() {
			in.Data()[i] = float32(int8(data[i%len(data)])) / 64
		}
	}
	assertStripEquiv(t, label, plan, in)
}

// FuzzStripEquivalence is the property form of the sweeps: geometry ×
// parameters × input bytes, with the scalar reference as the oracle.
// The seed corpus — thirty drawn cases, the randomized sweep this target
// grew out of, plus one fully-connected shape (1x1 kernel on a 1x1
// plane, batch 3) and one batch-3 layer that stays under the fan-out
// threshold — is run by every plain `go test`; `make fuzz-smoke` lets
// the fuzzer mutate from there.
func FuzzStripEquivalence(f *testing.F) {
	rng := tensor.NewRNG(777)
	for it := 0; it < 30; it++ {
		var b [12]uint8
		for i := range b {
			b[i] = uint8(rng.Uint64())
		}
		var data []byte
		if it%3 == 0 {
			data = make([]byte, 1+rng.Uint64()%97)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
		}
		f.Add(b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11], rng.Uint64(), data)
	}
	f.Add(uint8(0), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(2), uint64(778), []byte(nil))
	// 2→3 channels, 3x3/s1/p1 on 20x20, batch 3: in-place strips plus a
	// packed ring at 3,600 windows of 18 MACs, well under the fan-out
	// threshold, so all three images run inline on the caller through
	// worker 0's shard.
	f.Add(uint8(0), uint8(1), uint8(2), uint8(2), uint8(2), uint8(0), uint8(0), uint8(1), uint8(1), uint8(17), uint8(17), uint8(2), uint64(779), []byte(nil))
	f.Fuzz(fuzzStripCase)
}

// TestStripEquivalenceFaults drives fault-injected plans through the
// strip path: stuck kernels (whole output channels dead), flipped
// weight bits (border and interior windows read the one flipped
// buffer), and activation corruption.
// Two plans are compiled from identical injector configs so the
// production path and the reference see the same faults at the same
// run sequence.
func TestStripEquivalenceFaults(t *testing.T) {
	conv := nn.NewConv2D(4, 8, 3, 3, 1, 1, 1, true)
	rng := tensor.NewRNG(41)
	tensor.FillNorm(conv.Weights, rng, 0, 0.5)
	for i := range conv.Bias {
		conv.Bias[i] = float32(rng.Norm() * 0.1)
	}
	inShape := tensor.Shape{N: 1, C: 4, H: 10, W: 10}
	params := mixedParams(conv.OutC, rng)
	in := tensor.New(tensor.Shape{N: 2, C: 4, H: 10, W: 10})
	tensor.FillUniform(in, tensor.NewRNG(42), -1, 1)

	cfgs := []faults.Config{
		{Seed: 7, StuckZero: 0.4},
		{Seed: 8, WeightBitFlip: 0.05},
		{Seed: 9, ActBitFlip: 0.01},
		{Seed: 10, StuckZero: 0.25, WeightBitFlip: 0.02, ActBitFlip: 0.005},
	}
	for i, cfg := range cfgs {
		label := fmt.Sprintf("cfg%d", i)
		t.Run(label, func(t *testing.T) {
			for _, opts := range equivOpts {
				prod := NewLayerPlanFaulty("flt", conv, inShape, params, NegByMagnitude, faults.New(cfg))
				ref := NewLayerPlanFaulty("flt", conv, inShape, params, NegByMagnitude, faults.New(cfg))
				got, gtr := prod.Run(in, opts)
				want, wtr := ref.runReference(in, opts)
				if !reflect.DeepEqual(got.Data(), want.Data()) {
					t.Fatalf("%s opts=%+v: outputs differ", label, opts)
				}
				if !reflect.DeepEqual(gtr, wtr) {
					t.Fatalf("%s opts=%+v: traces differ\n got %+v\nwant %+v", label, opts, gtr, wtr)
				}
			}
		})
	}
}

// TestStripEquivalenceAcrossWorkers recrosses the two invariants: the
// strip path must match the scalar reference at every worker count, on
// a geometry with in-place strips, a packed ring, and multiple spans, so
// strip-granular work distribution is actually exercised — and on two
// plans a single row of windows apart that sit either side of
// parallel.InlineSteps, so the same holds for the rule that decides
// whether a layer fans out at all: 3 kernels × 2 images of 3x3x18 (162
// MACs + windowSteps = 200 steps a window) over 4x37 windows is 2,400
// steps short of the constant and runs on the caller, over 5x30 it is
// exactly the constant and fans out.
func TestStripEquivalenceAcrossWorkers(t *testing.T) {
	cases := []struct {
		name   string
		conv   *nn.Conv2D
		h, w   int
		inline bool
	}{
		{"wide_multi_span", nn.NewConv2D(3, 5, 3, 3, 1, 1, 1, true), 8, maxStripLanes + 20, false},
		{"just_under_inline_steps", nn.NewConv2D(18, 3, 3, 3, 1, 1, 1, true), 4, 37, true},
		{"just_over_inline_steps", nn.NewConv2D(18, 3, 3, 3, 1, 1, 1, true), 5, 30, false},
	}
	opts := RunOpts{CollectWindows: true, CollectPrediction: true}
	defer parallel.SetLimit(0)
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inShape := tensor.Shape{N: 1, C: tc.conv.InC, H: tc.h, W: tc.w}
			plan, in := equivConvPlan(t, tc.name, tc.conv, inShape, uint64(55+i), false)
			if steps := in.Shape().N * plan.outC * plan.outH * plan.outW * (tc.conv.KernelSize() + windowSteps); (steps < parallel.InlineSteps) != tc.inline {
				t.Fatalf("%d steps against parallel.InlineSteps = %d: the case is on the wrong side of the rule", steps, parallel.InlineSteps)
			}
			want, wtr := plan.runReference(in, opts)
			for _, workers := range []int{1, 2, 3, 8} {
				parallel.SetLimit(workers)
				got, gtr := plan.Run(in, opts)
				if !reflect.DeepEqual(got.Data(), want.Data()) {
					t.Fatalf("workers=%d: outputs differ from scalar reference", workers)
				}
				if !reflect.DeepEqual(gtr, wtr) {
					t.Fatalf("workers=%d: traces differ\n got %+v\nwant %+v", workers, gtr, wtr)
				}
			}
		})
	}
}
