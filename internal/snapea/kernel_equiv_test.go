package snapea

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"snapea/internal/faults"
	"snapea/internal/metrics"
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
// the same plan and requires bit-identical outputs and traces — on the
// given input and on its non-negative image, the one regime in which the
// blocked suffix phase runs at all.
func assertStripEquiv(t *testing.T, label string, plan *LayerPlan, in *tensor.Tensor) {
	t.Helper()
	for _, x := range []*tensor.Tensor{in, nonNegImage(in)} {
		issued := issuedOracle(plan, x)
		for _, opts := range equivOpts {
			want, wtr := plan.runReference(x, opts)
			assertRunMatches(t, fmt.Sprintf("%s nonneg=%v opts=%+v", label, x != in, opts), plan, x, opts, want, wtr, issued)
		}
	}
}

// runIssued is Run with the metrics registry on, and what the run added
// to engine.macs_issued — the one place the issued-MAC total is
// published.
func runIssued(plan *LayerPlan, in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace, int64) {
	metrics.Enable()
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()
	out, tr := plan.Run(in, opts)
	return out, tr, metrics.C("engine.macs_issued", metrics.Labels{"layer": plan.Node, "mode": plan.mode}).Value()
}

// assertRunMatches holds one Run to a runReference result: outputs
// Float32bits-identical, traces equal, and the issued-MAC total equal to
// issuedOracle's scalar recomputation — and the uncounted run's output,
// written into a tensor that held other values, Float32bits-identical
// too.
func assertRunMatches(t *testing.T, label string, plan *LayerPlan, in *tensor.Tensor, opts RunOpts, want *tensor.Tensor, wtr *LayerTrace, issued int64) {
	t.Helper()
	// Both runs draw activation faults from the same run sequence number
	// the reference drew from.
	seq := plan.runSeq.Load()
	got, gtr, gotIssued := runIssued(plan, in, opts)
	plan.runSeq.Store(seq)
	dirty := tensor.New(want.Shape())
	dirty.Fill(-7)
	uncounted, _ := plan.runTo(dirty, in, RunOpts{}, false)
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: output[%d] = %v, reference %v", label, i, g, w)
		}
		if g := uncounted.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: uncounted output[%d] = %v, reference %v", label, i, g, w)
		}
	}
	if !reflect.DeepEqual(gtr, wtr) {
		t.Fatalf("%s: traces differ\n got %+v\nwant %+v", label, gtr, wtr)
	}
	if gotIssued != issued {
		t.Fatalf("%s: engine.macs_issued = %d, scalar recomputation %d (%d counted)", label, gotIssued, issued, gtr.TotalOps)
	}
}

// nonNegImage returns |x| with every third element zeroed: what a
// post-ReLU activation looks like, and what the blocked suffix needs.
func nonNegImage(in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Shape())
	for i, v := range in.Data() {
		if i%3 != 2 {
			out.Data()[i] = float32(math.Abs(float64(v)))
		}
	}
	return out
}

// issuedOracle recomputes engine.macs_issued from the scalar window
// function alone: per strip, the prefix over every lane; when a lane
// survives it, the positive region over every lane, or over the
// survivors alone when they are under the crossover share; for each
// block entered, its taps (suffixBlock, or what is left of the suffix)
// over every lane — a lane is live at a block boundary iff the reference
// ran it past that tap — and, for the lanes that retired inside it taken
// four at a time in lane order, each group's lane count times the taps
// to its latest exit; and the taps the survivors run after the last
// block. It decides by itself whether a kernel may block.
func issuedOracle(p *LayerPlan, in *tensor.Tensor) int64 {
	s := in.Shape()
	nonNeg := true
	for _, v := range in.Data() {
		nonNeg = nonNeg && v >= 0 && !math.IsInf(float64(v), 0)
	}
	type lane struct {
		ops      int
		signZero bool
	}
	var issued int64
	for k := range p.kernels {
		ck := &p.kernels[k]
		if ck.stuck {
			continue
		}
		nw := len(ck.w)
		mono := nonNeg && nw-ck.posEnd >= suffixBlock
		for _, v := range ck.w[ck.posEnd:] {
			mono = mono && v <= 0 && !math.IsInf(float64(v), 0)
		}
		for n := 0; n < s.N; n++ {
			inBase := (n*s.C + int(ck.cBase)) * s.H * s.W
			strip := func(outs []int32, first int) {
				issued += int64(len(outs) * ck.numSpec)
				var live []lane
				for _, o := range outs {
					o := first + int(o)
					var st LayerTrace
					_, ops := p.window(ck, in.Data(), inBase, o/p.outW*p.Conv.StrideH-p.Conv.PadH, o%p.outW*p.Conv.StrideW-p.Conv.PadW, s.H, s.W, &st, RunOpts{})
					if st.SpecZero == 0 {
						live = append(live, lane{int(ops), st.SignZero == 1})
					}
				}
				if len(live) == 0 {
					return
				}
				dense := func() bool { return len(live)*suffixCrossoverDen >= len(outs)*suffixCrossoverNum }
				if dense() {
					issued += int64(len(outs) * (ck.posEnd - ck.numSpec))
				} else {
					issued += int64(len(live) * (ck.posEnd - ck.numSpec))
				}
				i := ck.posEnd
				for mono && i < nw && dense() {
					blk := min(suffixBlock, nw-i)
					issued += int64(len(outs) * blk)
					var next []lane
					var taps []int // each exit's replayed taps, in lane order
					for _, l := range live {
						if l.signZero && l.ops <= i+blk {
							taps = append(taps, l.ops-i)
						} else {
							next = append(next, l)
						}
					}
					for g := 0; g < len(taps); g += 4 {
						grp := taps[g:min(g+4, len(taps))]
						issued += int64(len(grp) * slices.Max(grp))
					}
					live = next
					i += blk
				}
				for _, l := range live {
					issued += int64(l.ops - i)
				}
			}
			for _, ls := range p.strip.strips {
				strip(laneIota[:ls.n], ls.out)
			}
			for c := 0; c < p.strip.packed; c += maxStripLanes {
				strip(p.strip.scatter[c:min(c+maxStripLanes, p.strip.packed)], 0)
			}
		}
	}
	return issued
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
// and its input from data, and holds Run to runReference. regime picks
// the input's sign: as drawn, |x|, or |x| with every fifth element a
// literal -0 (which the blocked suffix must accept as non-negative).
func fuzzStripCase(t *testing.T, groups, cin, cout, kh, kw, sh, sw, ph, pw, h, w, batch, regime uint8, seed uint64, data []byte) {
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
	if regime %= 3; regime > 0 {
		for i, v := range in.Data() {
			in.Data()[i] = float32(math.Abs(float64(v)))
			if regime == 2 && i%5 == 0 {
				in.Data()[i] = math.Float32frombits(1 << 31)
			}
		}
	}
	assertStripEquiv(t, fmt.Sprintf("%s_regime%d", label, regime), plan, in)
}

// FuzzStripEquivalence is the property form of the sweeps: geometry ×
// parameters × input bytes, with the scalar reference as the oracle.
// The seed corpus — thirty drawn cases cycling through the three input
// regimes, the randomized sweep this target grew out of, plus one
// fully-connected shape (1x1 kernel on a 1x1 plane, batch 3), one batch-3
// layer that stays under the fan-out threshold, two 5x5 kernels over six
// channels whose suffixes are long enough to block, and three drawn for
// short final blocks, one-lane replay groups and sparse strips — is run
// by every plain `go test`; `make fuzz-smoke` lets the fuzzer mutate from
// there.
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
		f.Add(b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11], uint8(it), rng.Uint64(), data)
	}
	f.Add(uint8(0), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(2), uint8(0), uint64(778), []byte(nil))
	// 2→3 channels, 3x3/s1/p1 on 20x20, batch 3: in-place strips plus a
	// packed ring at 3,600 windows of 18 MACs, well under the fan-out
	// threshold, so all three images run inline on the caller through
	// worker 0's shard.
	f.Add(uint8(0), uint8(1), uint8(2), uint8(2), uint8(2), uint8(0), uint8(0), uint8(1), uint8(1), uint8(17), uint8(17), uint8(2), uint8(0), uint64(779), []byte(nil))
	// 6→6 channels in two groups and 3→3 ungrouped (75 taps a kernel
	// either way), 5x5/s1/p2 on 23x23 and 9x9: non-negative inputs, the
	// second with -0s, streamed in place and packed whole.
	f.Add(uint8(1), uint8(2), uint8(2), uint8(4), uint8(4), uint8(0), uint8(0), uint8(2), uint8(2), uint8(18), uint8(18), uint8(1), uint8(1), uint64(780), []byte(nil))
	f.Add(uint8(0), uint8(2), uint8(2), uint8(4), uint8(4), uint8(0), uint8(0), uint8(2), uint8(2), uint8(4), uint8(4), uint8(0), uint8(2), uint64(781), []byte(nil))
	// Drawn for the kernel's later edges, counted on the reference's Ops:
	// 3-channel 5x4 kernels on a -0-sprinkled |x| input (35 strips left
	// under the crossover by the threshold check, 92 exits inside a short
	// final block, 14 blocks with a one-lane replay group); 2-channel 4x5
	// kernels on |x| (5, 10, 4); and a one-channel 2x1 kernel on a signed
	// input whose 28 sparse strips run the survivor-only positive region,
	// then drain.
	f.Add(uint8(74), uint8(107), uint8(125), uint8(114), uint8(88), uint8(76), uint8(126), uint8(141), uint8(236), uint8(186), uint8(47), uint8(88), uint8(2), uint64(67185), []byte(nil))
	f.Add(uint8(57), uint8(244), uint8(146), uint8(183), uint8(209), uint8(238), uint8(135), uint8(54), uint8(201), uint8(98), uint8(254), uint8(170), uint8(1), uint64(51646), []byte(nil))
	f.Add(uint8(255), uint8(126), uint8(193), uint8(71), uint8(95), uint8(36), uint8(66), uint8(237), uint8(197), uint8(254), uint8(232), uint8(31), uint8(0), uint64(91336), []byte(nil))
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
			for _, x := range []*tensor.Tensor{in, nonNegImage(in)} {
				for _, opts := range equivOpts {
					prod := NewLayerPlanFaulty("flt", conv, inShape, params, NegByMagnitude, faults.New(cfg))
					ref := NewLayerPlanFaulty("flt", conv, inShape, params, NegByMagnitude, faults.New(cfg))
					want, wtr := ref.runReference(x, opts)
					assertRunMatches(t, fmt.Sprintf("%s nonneg=%v opts=%+v", label, x != in, opts), prod, x, opts, want, wtr, issuedOracle(ref, x))
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
// exactly the constant and fans out. The last case is a 3x3x64 layer on a
// non-negative input, so the blocked suffix phase and its replay run at
// every worker count (and under -race in ci).
func TestStripEquivalenceAcrossWorkers(t *testing.T) {
	cases := []struct {
		name   string
		conv   *nn.Conv2D
		h, w   int
		inline bool
		nonNeg bool
	}{
		{"wide_multi_span", nn.NewConv2D(3, 5, 3, 3, 1, 1, 1, true), 8, maxStripLanes + 20, false, false},
		{"just_under_inline_steps", nn.NewConv2D(18, 3, 3, 3, 1, 1, 1, true), 4, 37, true, false},
		{"just_over_inline_steps", nn.NewConv2D(18, 3, 3, 3, 1, 1, 1, true), 5, 30, false, false},
		{"nonneg_3x3x64", nn.NewConv2D(64, 6, 3, 3, 1, 1, 1, true), 16, 16, false, true},
	}
	opts := RunOpts{CollectWindows: true, CollectPrediction: true}
	defer parallel.SetLimit(0)
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inShape := tensor.Shape{N: 1, C: tc.conv.InC, H: tc.h, W: tc.w}
			// The non-negative case is exact, so that more MACs issued than
			// counted can only come from a suffix block.
			plan, in := equivConvPlan(t, tc.name, tc.conv, inShape, uint64(55+i), tc.nonNeg)
			if steps := in.Shape().N * plan.outC * plan.outH * plan.outW * (tc.conv.KernelSize() + windowSteps); (steps < parallel.InlineSteps) != tc.inline {
				t.Fatalf("%d steps against parallel.InlineSteps = %d: the case is on the wrong side of the rule", steps, parallel.InlineSteps)
			}
			if tc.nonNeg {
				in = nonNegImage(in)
			}
			want, wtr := plan.runReference(in, opts)
			issued := issuedOracle(plan, in)
			if tc.nonNeg && issued <= wtr.TotalOps {
				t.Fatalf("%d MACs issued for %d counted: no suffix block ran", issued, wtr.TotalOps)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				parallel.SetLimit(workers)
				assertRunMatches(t, fmt.Sprintf("workers=%d", workers), plan, in, opts, want, wtr, issued)
			}
		})
	}
}

// suffixPlan compiles the layer the blocked suffix phase exists for — an
// exact 64→outC 3x3 on 16x16, 576 taps a kernel with about half of them
// in the negative suffix — and a post-ReLU-like input.
func suffixPlan(t testing.TB, outC int) (*LayerPlan, *tensor.Tensor) {
	t.Helper()
	conv := nn.NewConv2D(64, outC, 3, 3, 1, 1, 1, true)
	rng := tensor.NewRNG(91)
	tensor.FillNorm(conv.Weights, rng, 0, 0.5)
	for i := range conv.Bias {
		conv.Bias[i] = float32(rng.Norm() * 0.1)
	}
	inShape := tensor.Shape{N: 1, C: 64, H: 16, W: 16}
	plan := NewLayerPlan("suffix", conv, inShape, nil, NegByMagnitude)
	return plan, postReLUInput(inShape, tensor.NewRNG(92))
}

// postReLUInput draws what a ReLU layer hands the next one: half zeros,
// the rest uniform on (0, 1).
func postReLUInput(s tensor.Shape, rng *tensor.RNG) *tensor.Tensor {
	in := tensor.New(s)
	tensor.FillUniform(in, rng, -1, 1)
	for i, v := range in.Data() {
		in.Data()[i] = max(v, 0)
	}
	return in
}

// TestBlockedSuffixEntered keeps the suite from going blind: in exact
// mode every lane is live through the positive region and the drain
// issues exactly what it counts, so engine.macs_issued exceeds TotalOps
// only if a suffix block streamed past some lane's exit. On the
// long-kernel non-negative layer it must; with one negative element in
// the input the whole Run must fall back to the drain and issue exactly
// what it counts.
func TestBlockedSuffixEntered(t *testing.T) {
	plan, in := suffixPlan(t, 8)
	for k := range plan.kernels {
		if !plan.kernels[k].negMono {
			t.Fatalf("kernel %d of a clean 576-tap layer is not negMono", k)
		}
	}
	_, tr, issued := runIssued(plan, in, RunOpts{})
	if tr.SignZero == 0 || issued <= tr.TotalOps {
		t.Fatalf("non-negative input: %d sign exits, %d MACs issued for %d counted: the blocked suffix phase never ran", tr.SignZero, issued, tr.TotalOps)
	}
	assertStripEquiv(t, "suffix", plan, in)

	one := tensor.New(in.Shape())
	copy(one.Data(), in.Data())
	one.Data()[len(one.Data())/2] = -0.25
	_, tr, issued = runIssued(plan, one, RunOpts{})
	if issued != tr.TotalOps {
		t.Fatalf("one negative input element: %d MACs issued for %d counted: the Run did not fall back to the drain", issued, tr.TotalOps)
	}
	assertStripEquiv(t, "suffix_one_negative", plan, one)
}

// TestBlockedSuffixPinned pins the blocked phase's edges, each held to
// the scalar reference under every option set (CollectPrediction
// included) by assertStripEquiv. Kernels are built with a chosen number
// of negative weights so the suffix length is known.
func TestBlockedSuffixPinned(t *testing.T) {
	// build returns an 8→len(negs) 3x3 layer (72 taps a kernel) on 18x18
	// whose kernel k has exactly negs[k] negative weights, and a
	// post-ReLU-like input (mean 1/4). A NaN bias asks for the one that
	// centres a kernel's final sum on zero, so that about half its windows
	// exit, most of them late in the suffix.
	balanced := float32(math.NaN())
	build := func(seed uint64, bias float32, negs ...int) (*LayerPlan, *tensor.Tensor) {
		conv := nn.NewConv2D(8, len(negs), 3, 3, 1, 1, 1, true)
		rng := tensor.NewRNG(seed)
		for k, n := range negs {
			w := conv.Kernel(k)
			for i := range w {
				w[i] = float32(0.05 + rng.Float64())
				if (i*7+k)%len(w) < n { // 7 is coprime to 72: n distinct taps
					w[i] = -w[i] / 2
				}
			}
			conv.Bias[k] = bias
			if bias != bias {
				conv.Bias[k] = 0
				for _, v := range w {
					conv.Bias[k] -= v / 4
				}
			}
		}
		inShape := tensor.Shape{N: 1, C: 8, H: 18, W: 18}
		plan := NewLayerPlan("pinned", conv, inShape, nil, NegByMagnitude)
		for k, n := range negs {
			if ck := &plan.kernels[k]; len(ck.w)-ck.posEnd != n || ck.negMono != (n >= suffixBlock) {
				t.Fatalf("kernel %d: suffix of %d taps (negMono=%v), want %d", k, len(ck.w)-ck.posEnd, ck.negMono, n)
			}
		}
		return plan, postReLUInput(tensor.Shape{N: 2, C: 8, H: 18, W: 18}, rng)
	}

	t.Run("negative_at_posEnd", func(t *testing.T) {
		// A bias the positive region cannot lift: every window is already
		// negative when the suffix starts, and the reference retires it
		// after the first suffix tap, not before.
		plan, in := build(1, -1000, 40, 2*suffixBlock)
		_, tr := plan.Run(in, RunOpts{CollectWindows: true})
		for i, ops := range tr.Ops {
			if want := plan.kernels[i/(18*18)%2].posEnd + 1; int(ops) != want {
				t.Fatalf("window %d ran %d taps, want posEnd+1 = %d", i, ops, want)
			}
		}
		assertStripEquiv(t, "negative_at_posEnd", plan, in)
	})
	t.Run("suffix_k_blocks_and_one_more", func(t *testing.T) {
		// Suffixes of exactly 1, 2 and 3 blocks, and each plus one tap, and
		// one a tap too short to block at all.
		plan, in := build(2, balanced, suffixBlock, suffixBlock+1, 2*suffixBlock, 2*suffixBlock+1, 3*suffixBlock, 3*suffixBlock+1, suffixBlock-1)
		_, tr := plan.Run(in, RunOpts{})
		if tr.SignZero < tr.Windows/4 || tr.SignZero > tr.Windows*3/4 {
			t.Fatalf("%d of %d windows exit early: the case wants both exits and survivors", tr.SignZero, tr.Windows)
		}
		assertStripEquiv(t, "suffix_k_blocks", plan, in)
	})
	t.Run("suffix_k_blocks_plus_1_to_15", func(t *testing.T) {
		// Suffixes of k·16+1 … k·16+15 taps for k = 1, 2, 3: every length of
		// short final block, each streamed and replayed.
		var negs []int
		for k := 1; k <= 3; k++ {
			for r := 1; r < suffixBlock; r++ {
				negs = append(negs, k*suffixBlock+r)
			}
		}
		plan, in := build(5, balanced, negs...)
		assertStripEquiv(t, "suffix_k_blocks_plus_r", plan, in)
	})
	// The replay's edges, on exitPlan's designed lanes (-1 never exits).
	// Exits are spread over the lane order, so each replay group gathers
	// lanes that are not neighbours.
	never := -1
	spread := func(lanes int, exitAt ...int) []int {
		e := make([]int, lanes)
		for l := range e {
			e[l] = never
		}
		for i, m := range exitAt {
			e[(i*7+3)%lanes] = m // 7 is coprime to every lane count used
		}
		return e
	}
	t.Run("replay_group_exits_on_first_tap", func(t *testing.T) {
		// Two whole groups retire on the first tap of the first block, one
		// on the first tap of the second, and one lane on the first tap of
		// the short final block (3·16+5 taps).
		assertExitPlan(t, 3*suffixBlock+5, spread(64, 0, 0, 0, 0, 0, 0, 0, 0, 16, 16, 16, 16, 48))
	})
	t.Run("replay_group_exits_on_last_tap", func(t *testing.T) {
		// Groups whose lanes all retire on a block's last tap — the replay
		// runs the whole block — and one on the final block's last tap,
		// the kernel's last tap.
		assertExitPlan(t, 3*suffixBlock+5, spread(64, 15, 15, 15, 15, 31, 31, 31, 31, 52, 52))
	})
	t.Run("replay_group_of_one", func(t *testing.T) {
		// A block with a single exit, and one with five: groups with one
		// real lane of four, the rest padding copies that must be neither
		// stored nor counted. Exits on different taps within a group too.
		assertExitPlan(t, 3*suffixBlock+5, spread(64, 20, 33, 40, 47, 34, 35, 50))
	})
	t.Run("neg_zero_bias_zero_products", func(t *testing.T) {
		// A -0 bias and an input that is +0 but for one plane: products are
		// ±0, sums stay ±0 through whole blocks, and the sign of the zero
		// that comes out must be the reference's. Kernel 1 is all suffix.
		plan, in := build(3, math.Float32frombits(1<<31), 3*suffixBlock, 72)
		d := in.Data()
		clear(d[:len(d)-18*18])
		assertStripEquiv(t, "neg_zero_bias", plan, in)
	})
	t.Run("fault_flipped_suffix_weight", func(t *testing.T) {
		// Weight-SRAM bit flips land after reordering. A kernel whose suffix
		// they leave with a positive (or non-finite) weight must fall back
		// to the drain; its untouched neighbours must not.
		plan0, in := build(4, balanced, 40, 40, 40, 40, 40, 40, 40, 40)
		inj := faults.New(faults.Config{Seed: 7, WeightBitFlip: 0.03})
		plan := NewLayerPlanFaulty("pinned", plan0.Conv, plan0.inShape, nil, NegByMagnitude, inj)
		var off int
		for k := range plan.kernels {
			ck := &plan.kernels[k]
			bad := false
			for _, v := range ck.w[ck.posEnd:] {
				bad = bad || !(v <= 0) || math.IsInf(float64(v), 0)
			}
			if ck.negMono == bad {
				t.Fatalf("kernel %d: negMono=%v with a flipped suffix weight=%v", k, ck.negMono, bad)
			}
			if bad {
				off++
			}
		}
		if off == 0 || off == len(plan.kernels) {
			t.Fatalf("%d of %d kernels lost negMono: the case wants some but not all (pick another fault seed)", off, len(plan.kernels))
		}
		assertStripEquiv(t, "fault_flipped", plan, in)
	})
}

// assertExitPlan compiles an exact 1x1 layer of one kernel — a tap of
// weight 1, then `suffix` taps of weight -1 — over a 1×len(exitAt) plane,
// one in-place strip, on an input under which lane l's sum enters the
// suffix at exitAt[l]+0.5 and loses exactly 1 a tap, whatever order
// Reorder leaves the equal suffix weights in: the lane retires on suffix
// tap exitAt[l], or never for -1. It checks that the reference retires
// every lane as designed, then holds Run to it.
func assertExitPlan(t *testing.T, suffix int, exitAt []int) {
	t.Helper()
	conv := nn.NewConv2D(1+suffix, 1, 1, 1, 1, 0, 1, true)
	w := conv.Kernel(0)
	for i := range w {
		w[i] = -1
	}
	w[0], conv.Bias[0] = 1, 0
	inShape := tensor.Shape{N: 1, C: 1 + suffix, H: 1, W: len(exitAt)}
	plan := NewLayerPlan("exits", conv, inShape, nil, NegByMagnitude)
	if ck := &plan.kernels[0]; !ck.negMono || ck.posEnd != 1 {
		t.Fatalf("posEnd %d, negMono %v: the kernel is not one positive tap and a blockable suffix", ck.posEnd, ck.negMono)
	}
	in := tensor.New(inShape)
	d := in.Data()
	for l, m := range exitAt {
		d[l] = float32(suffix) // never below 0: ends the suffix at +0
		if m >= 0 {
			d[l] = float32(m) + 0.5
		}
	}
	for i := len(exitAt); i < len(d); i++ {
		d[i] = 1
	}
	_, tr := plan.runReference(in, RunOpts{CollectWindows: true})
	for l, m := range exitAt {
		want := 1 + suffix
		if m >= 0 {
			want = 1 + m + 1
		}
		if int(tr.Ops[l]) != want {
			t.Fatalf("lane %d ran %d taps, designed to exit on suffix tap %d", l, tr.Ops[l], m)
		}
	}
	assertStripEquiv(t, "exits", plan, in)
}

// sparsePlan compiles the layer the survivor-only positive region exists
// for: a predictive 64→outC 3x3 on hw×hw whose every kernel speculates on
// one tap — weight 4 on input channel 0's centre, far the largest of its
// N(0, 0.5) weights, so Reorder makes it the whole prefix — with bias
// -1/4 and Th 0, and a post-ReLU-like input whose channel 0 is 0 on seven
// pixels of every ten and in [1/2, 1) elsewhere. A window retires at the
// threshold check exactly when its centre pixel is one of the seven: 70 %
// of a 256-lane strip, more than 3/5 of every row.
func sparsePlan(t testing.TB, outC, hw int) (*LayerPlan, *tensor.Tensor) {
	t.Helper()
	conv := nn.NewConv2D(64, outC, 3, 3, 1, 1, 1, true)
	rng := tensor.NewRNG(93)
	tensor.FillNorm(conv.Weights, rng, 0, 0.5)
	params := make(LayerParams, outC)
	for k := range params {
		conv.Kernel(k)[4] = 4 // channel 0, ky = kx = 1
		conv.Bias[k] = -0.25
		params[k] = KernelParam{Th: 0, N: 1}
	}
	inShape := tensor.Shape{N: 1, C: 64, H: hw, W: hw}
	plan := NewLayerPlan("sparse", conv, inShape, params, NegByMagnitude)
	in := postReLUInput(inShape, tensor.NewRNG(94))
	for p := 0; p < hw*hw; p++ {
		in.Data()[p] = 0
		if p%10 >= 7 {
			in.Data()[p] = 0.5 + float32(rng.Float64())/2
		}
	}
	return plan, in
}

// TestSparsePositiveRegion pins the survivor-only positive region: on
// sparsePlan's layer, packed whole (16x16) and streamed in place with a
// packed ring (20x20), the threshold check must leave every strip under
// the crossover, the Run must issue fewer MACs than a dense positive
// region alone would, and outputs, Ops and every counter must match the
// reference — on the non-negative input, where the survivors' suffix
// drains, and on a signed one.
func TestSparsePositiveRegion(t *testing.T) {
	for _, hw := range []int{16, 20} {
		plan, in := sparsePlan(t, 4, hw)
		_, tr := plan.runReference(in, RunOpts{CollectWindows: true})
		var dense int64
		for k := range plan.kernels {
			ck := &plan.kernels[k]
			if ck.numSpec != 1 || ck.w[0] != 4 {
				t.Fatalf("kernel %d: prefix of %d taps starting %v, want the one weight-4 tap", k, ck.numSpec, ck.w[0])
			}
			dense += int64(plan.outH * plan.outW * ck.posEnd)
			plane := tr.Ops[k*plan.outH*plan.outW:][:plan.outH*plan.outW]
			strip := func(outs []int32, first int) {
				retired := 0
				for _, o := range outs {
					if plane[first+int(o)] == 1 {
						retired++
					}
				}
				if retired*5 <= len(outs)*3 {
					t.Fatalf("%dx%d kernel %d: a strip of %d lanes retired %d at the threshold check, want more than 3/5", hw, hw, k, len(outs), retired)
				}
			}
			for _, ls := range plan.strip.strips {
				strip(laneIota[:ls.n], ls.out)
			}
			for c := 0; c < plan.strip.packed; c += maxStripLanes {
				strip(plan.strip.scatter[c:min(c+maxStripLanes, plan.strip.packed)], 0)
			}
		}
		if _, _, issued := runIssued(plan, in, RunOpts{}); issued >= dense {
			t.Fatalf("%dx%d: %d MACs issued, a dense positive region alone issues %d", hw, hw, issued, dense)
		}
		assertStripEquiv(t, fmt.Sprintf("sparse_%d", hw), plan, in)
		signed := tensor.New(in.Shape())
		for i, v := range in.Data() {
			if i >= hw*hw && i%2 == 1 {
				v = -v
			}
			signed.Data()[i] = v
		}
		assertStripEquiv(t, fmt.Sprintf("sparse_%d_signed", hw), plan, signed)
	}
}

// TestNegBit holds the branch-free sign test to a < 0 — ±0 and every
// NaN not negative — on each class boundary and a sweep of bit patterns.
func TestNegBit(t *testing.T) {
	check := func(b uint32) {
		a := math.Float32frombits(b)
		if got := negBit(a); got != 0 && got != 1 || (got == 1) != (a < 0) {
			t.Fatalf("negBit(%#08x = %v) = %d, a < 0 is %v", b, a, got, a < 0)
		}
	}
	for _, b := range []uint32{
		0, 1, 0x3f800000, 0x7f7fffff, 0x7f800000, 0x7f800001, 0x7fc00000, 0x7fffffff,
		0x80000000, 0x80000001, 0x80000002, 0xbf800000, 0xff7fffff, 0xff800000, 0xff800001, 0xffc00000, 0xffffffff,
	} {
		check(b)
	}
	for b := uint64(0); b < 1<<32; b += 65521 {
		check(uint32(b))
	}
}
