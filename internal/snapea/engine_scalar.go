package snapea

import (
	"fmt"

	"snapea/internal/tensor"
)

// runReference is the retained scalar execution path: one gather-MAC
// per tap per window, windows in raster order, exactly the engine's
// pre-strip-mining behaviour. It exists as the ground truth the strip
// kernel is validated against — the
// kernel-equivalence suite asserts Run and runReference produce
// byte-identical outputs and traces over random geometries, modes, and
// fault injections. It runs serially and records no metrics.
func (p *LayerPlan) runReference(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	s := in.Shape()
	out, tr := p.newRun(in, nil, opts, new(LayerTrace))
	for k := 0; k < p.outC; k++ {
		for n := 0; n < s.N; n++ {
			p.runKernelScalar(n, k, in, out, tr, tr, opts)
		}
	}
	if p.faults != nil {
		seq := p.runSeq.Add(1) - 1
		p.faults.CorruptActivations(fmt.Sprintf("%s#%d", p.Node, seq), out.Data())
	}
	return out, tr
}

// runKernelScalar computes all windows of output channel k for batch
// element n one window at a time.
func (p *LayerPlan) runKernelScalar(n, k int, in, out *tensor.Tensor, tr, st *LayerTrace, opts RunOpts) {
	ck := &p.kernels[k]
	if ck.stuck {
		return
	}
	conv := p.Conv
	s := in.Shape()
	ind := in.Data()
	outd := out.Data()
	inBase := (n*s.C + int(ck.cBase)) * s.H * s.W
	outRow := (n*p.outC + k) * p.outH * p.outW
	for oy := 0; oy < p.outH; oy++ {
		iy0 := oy*conv.StrideH - conv.PadH
		for ox := 0; ox < p.outW; ox++ {
			ix0 := ox*conv.StrideW - conv.PadW
			val, ops := p.window(ck, ind, inBase, iy0, ix0, s.H, s.W, st, opts)
			idx := outRow + oy*p.outW + ox
			outd[idx] = val
			st.TotalOps += int64(ops)
			if tr.Ops != nil {
				tr.Ops[idx] = ops
			}
		}
	}
}

// window executes one convolution window with early activation, taps in
// the kernel's reordered sequence. Out-of-bounds taps read zero and are
// executed like any other (the hardware streams explicit zero padding
// through the MACs, so they still count as operations) — the behaviour
// the strip kernel's patch matrix reproduces.
func (p *LayerPlan) window(ck *compiledKernel, ind []float32, inBase, iy0, ix0, inH, inW int, st *LayerTrace, opts RunOpts) (float32, int32) {
	base0 := inBase + iy0*inW + ix0
	fetch := func(i int) float32 {
		_, ky, kx := p.tapCoords(ck, i)
		if uint(iy0+ky) < uint(inH) && uint(ix0+kx) < uint(inW) {
			return ind[base0+ck.offs[i]]
		}
		return 0
	}
	acc := ck.bias
	w := ck.w
	i := 0
	// Speculation prefix.
	for ; i < ck.numSpec; i++ {
		acc += w[i] * fetch(i)
	}
	if ck.numSpec > 0 && acc <= ck.th {
		st.SpecZero++
		if opts.CollectPrediction {
			full := acc
			for j := i; j < len(w); j++ {
				full += w[j] * fetch(j)
			}
			if full < 0 {
				st.TruthNeg++
				st.SpecTN++
			} else {
				st.SpecFN++
			}
		}
		return 0, int32(ck.numSpec)
	}
	// Positive region: the sum only grows; no checks needed.
	for ; i < ck.posEnd; i++ {
		acc += w[i] * fetch(i)
	}
	// Negative region: the sum only shrinks; first sign flip is final.
	for ; i < len(w); i++ {
		acc += w[i] * fetch(i)
		if acc < 0 {
			i++
			st.SignZero++
			if opts.CollectPrediction {
				st.TruthNeg++
			}
			return 0, int32(i)
		}
	}
	if acc < 0 {
		if opts.CollectPrediction {
			st.TruthNeg++
		}
		return 0, int32(i)
	}
	return acc, int32(i)
}
