package snapea

import (
	"snapea/internal/fixed"
	"snapea/internal/tensor"
)

// RunFixed executes the layer plan in Q7.8 fixed point, modelling the
// accelerator's 16-bit PE datapath (Tables II/III) bit-for-bit: inputs,
// weights, biases and thresholds are quantized, partial sums accumulate
// in the widened 32-bit accumulator, and the PAU's sign and threshold
// checks read the quantized accumulator. The float engine (Run) is the
// behavioural reference; the quantization ablation measures how little
// the early-termination decisions move under Q7.8.
//
// Execution is a border ring plus a strip-mined interior (stripPlan's
// interior bounds and spans): border windows (any tap out of bounds) run
// the per-window scalar path, interior rows run tap-major over strips of
// consecutive output pixels with an active-lane worklist that compacts
// as the sign check retires windows. Integer accumulation is
// order-independent, but the taps still execute in the scalar order so
// the per-window op counts — the quantity the ablation measures — are
// identical to runFixedReference by construction.
func (p *LayerPlan) RunFixed(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	s := in.Shape()
	out, tr := p.fixedSetup(in, opts)
	qin := fixed.Quantize(in.Data())
	conv := p.Conv
	outd := out.Data()
	sp := p.strip
	lanes := sp.maxLanes
	if lanes < 1 {
		lanes = 1
	}
	acc := make([]fixed.Acc, lanes)
	active := make([]int32, 0, lanes)
	for k := 0; k < p.outC; k++ {
		ck := &p.kernels[k]
		if ck.stuck {
			continue
		}
		qw := fixed.Quantize(ck.w)
		qb := fixed.FromFloat(float64(ck.bias))
		qth := fixed.FromFloat(float64(ck.th))
		for n := 0; n < s.N; n++ {
			inBase := (n*s.C + int(ck.cBase)) * s.H * s.W
			outRow := (n*p.outC + k) * p.outH * p.outW
			for oy := 0; oy < p.outH; oy++ {
				iy0 := oy*conv.StrideH - conv.PadH
				rowIdx := outRow + oy*p.outW
				if oy < sp.oyLo || oy >= sp.oyHi {
					p.fixedBorderCols(ck, qw, qb, qth, qin, outd, inBase, iy0, 0, p.outW, s.H, s.W, rowIdx, tr)
					continue
				}
				p.fixedBorderCols(ck, qw, qb, qth, qin, outd, inBase, iy0, 0, sp.oxLo, s.H, s.W, rowIdx, tr)
				rowBase := inBase + iy0*s.W
				for _, span := range sp.spans {
					base := rowBase + span.ox*conv.StrideW - conv.PadW
					active = p.runFixedStrip(ck, qw, qb, qth, qin, outd, base, span.n, conv.StrideW, rowIdx+span.ox, tr, acc, active)
				}
				p.fixedBorderCols(ck, qw, qb, qth, qin, outd, inBase, iy0, sp.oxHi, p.outW, s.H, s.W, rowIdx, tr)
			}
		}
	}
	return out, tr
}

// fixedSetup allocates the output tensor and trace shared by RunFixed
// and its scalar reference.
func (p *LayerPlan) fixedSetup(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	s := in.Shape()
	out := tensor.New(p.OutShape(s.N))
	tr := &LayerTrace{
		Node:        p.Node,
		KernelSize:  p.Conv.KernelSize(),
		Batch:       s.N,
		OutC:        p.outC,
		OutH:        p.outH,
		OutW:        p.outW,
		InputElems:  int64(s.N) * int64(s.C*s.H*s.W),
		WeightElems: int64(p.outC) * int64(p.Conv.KernelSize()),
	}
	tr.Windows = int64(s.N) * int64(p.outC*p.outH*p.outW)
	tr.DenseOps = tr.Windows * int64(tr.KernelSize)
	if opts.CollectWindows {
		tr.Ops = make([]int32, tr.Windows)
	}
	return out, tr
}

// runFixedStrip executes one strip of consecutive interior windows
// tap-major in fixed point. Every tap is in bounds, so the input
// address is base + lane*strideW + offs[tap]. The worklist compacts as
// the threshold and sign checks retire lanes; retired lanes drop out of
// all later taps. Returns the (reusable) worklist backing slice.
func (p *LayerPlan) runFixedStrip(ck *compiledKernel, qw []fixed.Fixed, qb, qth fixed.Fixed, qin []fixed.Fixed, outd []float32, base, lanes, strideW, outIdx int, tr *LayerTrace, acc []fixed.Acc, active []int32) []int32 {
	nw := len(qw)
	offs := ck.offs
	acc = acc[:lanes]
	a0 := fixed.AccFrom(qb)
	for l := range acc {
		acc[l] = a0
	}
	i := 0
	// Speculation prefix: all lanes live, tap-major.
	for ; i < ck.numSpec; i++ {
		w := qw[i]
		o := base + offs[i]
		for l := 0; l < lanes; l++ {
			acc[l] = acc[l].MAC(w, qin[o+l*strideW])
		}
	}
	// Predictive threshold check: retire with ops = numSpec, as the PAU
	// would, and build the worklist of surviving lanes.
	active = active[:0]
	if ck.numSpec > 0 {
		for l := 0; l < lanes; l++ {
			if acc[l].LessEq(qth) {
				tr.SpecZero++
				outd[outIdx+l] = 0
				tr.TotalOps += int64(ck.numSpec)
				if tr.Ops != nil {
					tr.Ops[outIdx+l] = int32(ck.numSpec)
				}
			} else {
				active = append(active, int32(l))
			}
		}
	} else {
		for l := 0; l < lanes; l++ {
			active = append(active, int32(l))
		}
	}
	// Positive region: no checks, survivors only.
	for ; i < ck.posEnd; i++ {
		w := qw[i]
		o := base + offs[i]
		for _, l := range active {
			acc[l] = acc[l].MAC(w, qin[o+int(l)*strideW])
		}
	}
	// Negative suffix: sign check after every tap; compact the worklist
	// in place as lanes retire.
	for ; i < nw && len(active) > 0; i++ {
		w := qw[i]
		o := base + offs[i]
		na := active[:0]
		for _, l := range active {
			a := acc[l].MAC(w, qin[o+int(l)*strideW])
			acc[l] = a
			if a.Neg() {
				tr.SignZero++
				outd[outIdx+int(l)] = 0
				tr.TotalOps += int64(i + 1)
				if tr.Ops != nil {
					tr.Ops[outIdx+int(l)] = int32(i + 1)
				}
			} else {
				na = append(na, l)
			}
		}
		active = na
	}
	// Survivors ran the full kernel. A negative final sum is only
	// possible when the kernel has no negative suffix (posEnd == nw);
	// it clamps to zero without counting as a sign termination, exactly
	// like the scalar path.
	for _, l := range active {
		var val fixed.Fixed
		if !acc[l].Neg() {
			val = acc[l].Fixed()
		}
		outd[outIdx+int(l)] = float32(val.Float())
		tr.TotalOps += int64(nw)
		if tr.Ops != nil {
			tr.Ops[outIdx+int(l)] = int32(nw)
		}
	}
	return active
}

// fixedBorderCols runs the scalar padded-window fixed-point path for
// output columns [oxLo, oxHi) of one output row.
func (p *LayerPlan) fixedBorderCols(ck *compiledKernel, qw []fixed.Fixed, qb, qth fixed.Fixed, qin []fixed.Fixed, outd []float32, inBase, iy0, oxLo, oxHi, inH, inW, rowIdx int, tr *LayerTrace) {
	conv := p.Conv
	for ox := oxLo; ox < oxHi; ox++ {
		ix0 := ox*conv.StrideW - conv.PadW
		val, ops := p.fixedWindow(ck, qw, qb, qth, qin, inBase, iy0, ix0, inH, inW, tr)
		idx := rowIdx + ox
		outd[idx] = val
		tr.TotalOps += int64(ops)
		if tr.Ops != nil {
			tr.Ops[idx] = ops
		}
	}
}

// fixedWindow executes one padded window in fixed point; out-of-bounds
// taps stream zero through the MAC and still count as operations.
func (p *LayerPlan) fixedWindow(ck *compiledKernel, qw []fixed.Fixed, qb, qth fixed.Fixed, qin []fixed.Fixed, inBase, iy0, ix0, inH, inW int, tr *LayerTrace) (float32, int32) {
	base0 := inBase + iy0*inW + ix0
	ky, kx, offs := ck.ky, ck.kx, ck.offs
	fetch := func(i int) fixed.Fixed {
		iy := iy0 + int(ky[i])
		ix := ix0 + int(kx[i])
		if uint(iy) < uint(inH) && uint(ix) < uint(inW) {
			return qin[base0+offs[i]]
		}
		return 0
	}
	acc := fixed.AccFrom(qb)
	i := 0
	for ; i < ck.numSpec; i++ {
		acc = acc.MAC(qw[i], fetch(i))
	}
	if ck.numSpec > 0 && acc.LessEq(qth) {
		tr.SpecZero++
		return 0, int32(ck.numSpec)
	}
	for ; i < ck.posEnd; i++ {
		acc = acc.MAC(qw[i], fetch(i))
	}
	for ; i < len(qw); i++ {
		acc = acc.MAC(qw[i], fetch(i))
		if acc.Neg() {
			tr.SignZero++
			return 0, int32(i + 1)
		}
	}
	var val fixed.Fixed
	if !acc.Neg() {
		val = acc.Fixed()
	}
	return float32(val.Float()), int32(i)
}

// runFixedReference is the retained serial scalar fixed-point path —
// the original RunFixed loop nest, kept as the oracle the strip-mined
// RunFixed is validated against (TestRunFixedStripEquivalence).
func (p *LayerPlan) runFixedReference(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	s := in.Shape()
	out, tr := p.fixedSetup(in, opts)
	qin := fixed.Quantize(in.Data())
	conv := p.Conv
	outd := out.Data()
	for k := 0; k < p.outC; k++ {
		ck := &p.kernels[k]
		if ck.stuck {
			continue
		}
		qw := fixed.Quantize(ck.w)
		qb := fixed.FromFloat(float64(ck.bias))
		qth := fixed.FromFloat(float64(ck.th))
		for n := 0; n < s.N; n++ {
			inBase := (n*s.C + int(ck.cBase)) * s.H * s.W
			for oy := 0; oy < p.outH; oy++ {
				iy0 := oy*conv.StrideH - conv.PadH
				for ox := 0; ox < p.outW; ox++ {
					ix0 := ox*conv.StrideW - conv.PadW
					fetch := func(i int) fixed.Fixed {
						iy := iy0 + int(ck.ky[i])
						ix := ix0 + int(ck.kx[i])
						if iy < 0 || iy >= s.H || ix < 0 || ix >= s.W {
							return 0
						}
						return qin[inBase+int(ck.ci[i])*s.H*s.W+iy*s.W+ix]
					}
					acc := fixed.AccFrom(qb)
					i := 0
					for ; i < ck.numSpec; i++ {
						acc = acc.MAC(qw[i], fetch(i))
					}
					var val fixed.Fixed
					ops := int32(0)
					if ck.numSpec > 0 && acc.LessEq(qth) {
						tr.SpecZero++
						ops = int32(ck.numSpec)
					} else {
						for ; i < ck.posEnd; i++ {
							acc = acc.MAC(qw[i], fetch(i))
						}
						terminated := false
						for ; i < len(qw); i++ {
							acc = acc.MAC(qw[i], fetch(i))
							if acc.Neg() {
								i++
								tr.SignZero++
								terminated = true
								break
							}
						}
						ops = int32(i)
						if !terminated && !acc.Neg() {
							val = acc.Fixed()
						}
					}
					widx := ((n*p.outC+k)*p.outH+oy)*p.outW + ox
					outd[widx] = float32(val.Float())
					tr.TotalOps += int64(ops)
					if tr.Ops != nil {
						tr.Ops[widx] = ops
					}
				}
			}
		}
	}
	return out, tr
}
