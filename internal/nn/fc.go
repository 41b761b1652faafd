package nn

import (
	"fmt"

	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// FC is a fully-connected layer. It flattens its input, so no separate
// Flatten layer is needed between the conv stack and the classifier head.
// The paper runs fully-connected layers on the same PE hardware as
// convolutions (they account for ≈1% of CNN compute).
type FC struct {
	In, Out int
	ReLU    bool
	Weights *tensor.Tensor // {Out, In, 1, 1}
	Bias    []float32
}

// NewFC allocates a fully-connected layer with zeroed parameters.
func NewFC(in, out int, relu bool) *FC {
	return &FC{
		In: in, Out: out, ReLU: relu,
		Weights: tensor.New(tensor.Shape{N: out, C: in, H: 1, W: 1}),
		Bias:    make([]float32, out),
	}
}

// ParamCount returns the number of learnable parameters.
func (f *FC) ParamCount() int { return f.Out*f.In + f.Out }

// OutShape implements Layer.
func (f *FC) OutShape(ins []tensor.Shape) tensor.Shape {
	in := oneShape(ins)
	per := in.C * in.H * in.W
	if per != f.In {
		panic(fmt.Sprintf("nn: fc expects %d inputs, got %v (%d)", f.In, in, per))
	}
	return tensor.Shape{N: in.N, C: f.Out, H: 1, W: 1}
}

// Forward implements Layer. Work items are blocks of four neurons of one
// image, four independent accumulators sharing each x[i] load (a single
// dot product is bound by the latency of its one add chain); every
// neuron still starts from its bias and adds its own products in input
// order, so the result does not depend on the blocking.
func (f *FC) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	out := tensor.New(f.OutShape([]tensor.Shape{one(ins).Shape()}))
	f.ForwardInto(ins, out)
	return out
}

// ForwardInto is Forward into out, a tensor of the shape OutShape
// reports that may hold anything: every output element is written.
func (f *FC) ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor) {
	in := one(ins)
	s := in.Shape()
	mustOutShape(f.OutShape([]tensor.Shape{s}), out)
	blocks := (f.Out + 3) / 4
	parallel.ForCost(s.N*blocks, 4*f.In, fcRun{f, in.Data(), out.Data(), blocks}, fcRun.block)
}

// fcRun is one Forward's operands.
type fcRun struct {
	f      *FC
	in     []float32
	out    []float32
	blocks int // four-neuron blocks per image, the last one possibly short
}

// block computes block u%blocks of image u/blocks.
func (r fcRun) block(_, u int) {
	f := r.f
	n, o := u/r.blocks, u%r.blocks*4
	x := r.in[n*f.In : (n+1)*f.In]
	y := r.out[n*f.Out : (n+1)*f.Out]
	wd := f.Weights.Data()
	if o+4 > f.Out {
		for ; o < f.Out; o++ {
			w := wd[o*f.In : (o+1)*f.In]
			acc := f.Bias[o]
			for i, xv := range x {
				acc += xv * w[i]
			}
			y[o] = f.activate(acc)
		}
		return
	}
	w0 := wd[o*f.In:][:len(x)]
	w1 := wd[(o+1)*f.In:][:len(x)]
	w2 := wd[(o+2)*f.In:][:len(x)]
	w3 := wd[(o+3)*f.In:][:len(x)]
	a0, a1, a2, a3 := f.Bias[o], f.Bias[o+1], f.Bias[o+2], f.Bias[o+3]
	for i, xv := range x {
		a0 += xv * w0[i]
		a1 += xv * w1[i]
		a2 += xv * w2[i]
		a3 += xv * w3[i]
	}
	y[o], y[o+1], y[o+2], y[o+3] = f.activate(a0), f.activate(a1), f.activate(a2), f.activate(a3)
}

func (f *FC) activate(v float32) float32 {
	if f.ReLU && v < 0 {
		return 0
	}
	return v
}
