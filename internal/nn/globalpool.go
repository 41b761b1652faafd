package nn

import "snapea/internal/tensor"

// GlobalAvgPool averages each channel's full spatial plane down to 1×1,
// regardless of the incoming spatial size. GoogLeNet's final 7×7 average
// pool and SqueezeNet's classifier pool are instances of this; expressing
// them globally lets the same topology run at reduced input resolutions.
type GlobalAvgPool struct{}

// OutShape implements Layer.
func (GlobalAvgPool) OutShape(ins []tensor.Shape) tensor.Shape {
	in := oneShape(ins)
	return tensor.Shape{N: in.N, C: in.C, H: 1, W: 1}
}

// Forward implements Layer.
func (g GlobalAvgPool) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	out := tensor.New(g.OutShape([]tensor.Shape{one(ins).Shape()}))
	g.ForwardInto(ins, out)
	return out
}

// ForwardInto is Forward into out, a tensor of the shape OutShape
// reports that may hold anything: every output element is written.
func (g GlobalAvgPool) ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor) {
	in := one(ins)
	s := in.Shape()
	mustOutShape(g.OutShape([]tensor.Shape{s}), out)
	ind, outd := in.Data(), out.Data()
	plane := s.H * s.W
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			var acc float64
			base := (n*s.C + c) * plane
			for p := 0; p < plane; p++ {
				acc += float64(ind[base+p])
			}
			outd[n*s.C+c] = float32(acc / float64(plane))
		}
	}
}
