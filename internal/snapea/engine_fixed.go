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
// It is one serial scalar loop nest — one window at a time, taps in the
// kernel's reordered sequence, out-of-bounds taps streaming zero through
// the MAC and counting as operations — and deliberately not a second
// instantiation of the strip kernel: its one caller is an accuracy
// experiment on one image, and the hot float body stays the only copy
// of the lane machinery.
func (p *LayerPlan) RunFixed(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	s := in.Shape()
	out, tr := p.newRun(in, nil, opts, new(LayerTrace))
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
						ci, ky, kx := p.tapCoords(ck, i)
						iy, ix := iy0+ky, ix0+kx
						if iy < 0 || iy >= s.H || ix < 0 || ix >= s.W {
							return 0
						}
						return qin[inBase+ci*s.H*s.W+iy*s.W+ix]
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
