package nn

import (
	"fmt"
	"math"

	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// MaxPool2D is a max-pooling layer. The paper notes max pooling after a
// convolution filters out the small positive values misspeculation tends
// to hit, which is why the predictive mode's errors are mostly benign.
type MaxPool2D struct {
	K, Stride, Pad int
	// Ceil selects Caffe-style ceil-mode output sizing, used by the
	// original AlexNet/GoogLeNet deployments.
	Ceil bool
}

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(ins []tensor.Shape) tensor.Shape {
	in := oneShape(ins)
	return tensor.Shape{N: in.N, C: in.C, H: poolDim(in.H, p.K, p.Stride, p.Pad, p.Ceil), W: poolDim(in.W, p.K, p.Stride, p.Pad, p.Ceil)}
}

func poolDim(in, k, stride, pad int, ceil bool) int {
	num := in + 2*pad - k
	if num < 0 {
		panic(fmt.Sprintf("nn: pool window %d larger than padded input %d", k, in+2*pad))
	}
	if ceil {
		return (num+stride-1)/stride + 1
	}
	return num/stride + 1
}

// Forward implements Layer. Planes are independent work items. Within a
// plane it goes tap-major over one output row at a time: for each (ky,
// kx) the outputs whose tap lands inside the input form one span, hoisted
// out of the inner loop, so that loop is a strided compare-and-keep with
// no window bounds to test. Each output still meets its taps in (ky, kx)
// order under the same `v > m` test — which keeps the first of a ±0 tie
// and never picks a NaN, neither of which the builtin max does.
func (p *MaxPool2D) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	in := one(ins)
	s := in.Shape()
	os := p.OutShape([]tensor.Shape{s})
	out := tensor.New(os)
	r := poolRun{
		in: in.Data(), out: out.Data(),
		k: p.K, stride: p.Stride, pad: p.Pad,
		inH: s.H, inW: s.W, outH: os.H, outW: os.W,
		// Tap column kx reaches input column ox*stride-pad+kx, which is
		// inside [0, inW) for ox in [lo, hi); both ends only move left as
		// kx grows. These are kx = 0's.
		lo0: min(os.W, (p.Pad+p.Stride-1)/p.Stride),
		hi0: min(os.W, (s.W+p.Pad+p.Stride-1)/p.Stride),
	}
	parallel.ForCost(s.N*s.C, os.H*os.W*p.K*p.K, r, poolRun.plane)
	return out
}

// poolRun is one Forward's operands.
type poolRun struct {
	in, out                        []float32
	k, stride, pad                 int
	inH, inW, outH, outW, lo0, hi0 int
}

// plane pools plane u (image × channel).
func (r poolRun) plane(_, u int) {
	k, stride, pad := r.k, r.stride, r.pad
	src := r.in[u*r.inH*r.inW : (u+1)*r.inH*r.inW]
	dst := r.out[u*r.outH*r.outW : (u+1)*r.outH*r.outW]
	negInf := float32(math.Inf(-1))
	for oy := 0; oy < r.outH; oy++ {
		m := dst[oy*r.outW : (oy+1)*r.outW]
		for i := range m {
			m[i] = negInf
		}
		for ky := 0; ky < k; ky++ {
			iy := oy*stride - pad + ky
			if iy < 0 || iy >= r.inH {
				continue
			}
			row := src[iy*r.inW : (iy+1)*r.inW]
			lo, hi := r.lo0, r.hi0
			for kx := 0; kx < k; kx++ {
				off := kx - pad
				for lo > 0 && (lo-1)*stride+off >= 0 {
					lo--
				}
				for hi > 0 && (hi-1)*stride+off >= r.inW {
					hi--
				}
				if lo >= hi {
					continue
				}
				mm, taps := m[lo:hi], row[lo*stride+off:]
				if stride == 1 {
					for j, v := range taps[:len(mm)] {
						mm[j] = keepGreater(mm[j], v)
					}
					continue
				}
				for j := range mm {
					mm[j] = keepGreater(mm[j], taps[j*stride])
				}
			}
		}
	}
}

// keepGreater is `if v > m { m = v }` as a select between bit patterns,
// which the compiler turns into a conditional move where the if on
// floats stays a branch. Whether a tap beats the running maximum is
// close to a coin toss on activations, and a mispredicted branch costs
// more than the rest of the tap.
func keepGreater(m, v float32) float32 {
	keep, vb := math.Float32bits(m), math.Float32bits(v)
	if v > m {
		keep = vb
	}
	return math.Float32frombits(keep)
}

// AvgPool2D is an average-pooling layer (GoogLeNet's 7×7 global pool).
// Padding contributes zeros to the average, matching Caffe.
type AvgPool2D struct {
	K, Stride, Pad int
	Ceil           bool
}

// OutShape implements Layer.
func (p *AvgPool2D) OutShape(ins []tensor.Shape) tensor.Shape {
	in := oneShape(ins)
	return tensor.Shape{N: in.N, C: in.C, H: poolDim(in.H, p.K, p.Stride, p.Pad, p.Ceil), W: poolDim(in.W, p.K, p.Stride, p.Pad, p.Ceil)}
}

// Forward implements Layer.
func (p *AvgPool2D) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	in := one(ins)
	s := in.Shape()
	os := p.OutShape([]tensor.Shape{s})
	out := tensor.New(os)
	ind, outd := in.Data(), out.Data()
	area := float32(p.K * p.K)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			base := (n*s.C + c) * s.H * s.W
			for oy := 0; oy < os.H; oy++ {
				for ox := 0; ox < os.W; ox++ {
					var acc float32
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride - p.Pad + ky
						if iy < 0 || iy >= s.H {
							continue
						}
						for kx := 0; kx < p.K; kx++ {
							ix := ox*p.Stride - p.Pad + kx
							if ix < 0 || ix >= s.W {
								continue
							}
							acc += ind[base+iy*s.W+ix]
						}
					}
					outd[((n*os.C+c)*os.H+oy)*os.W+ox] = acc / area
				}
			}
		}
	}
	return out
}
