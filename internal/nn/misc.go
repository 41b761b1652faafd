package nn

import (
	"fmt"
	"math"

	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// ReLU is a standalone rectifier layer, used where the activation is not
// fused into a convolution (e.g. after plain FC layers in tests).
type ReLU struct{}

// OutShape implements Layer.
func (ReLU) OutShape(ins []tensor.Shape) tensor.Shape { return oneShape(ins) }

// Forward implements Layer.
func (ReLU) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	in := one(ins)
	out := in.Clone()
	d := out.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
	return out
}

// Dropout is an identity at inference time; it exists so model builders
// can mirror the published topologies one-to-one.
type Dropout struct{ Rate float64 }

// OutShape implements Layer.
func (Dropout) OutShape(ins []tensor.Shape) tensor.Shape { return oneShape(ins) }

// Forward implements Layer.
func (Dropout) Forward(ins []*tensor.Tensor) *tensor.Tensor { return one(ins) }

// LRN is AlexNet/GoogLeNet-style local response normalization across
// channels.
type LRN struct {
	Size  int // neighborhood size (e.g. 5)
	Alpha float64
	Beta  float64
	K     float64
}

// DefaultLRN returns the parameters the published networks use.
func DefaultLRN() *LRN { return &LRN{Size: 5, Alpha: 1e-4, Beta: 0.75, K: 1} }

// OutShape implements Layer. The neighbourhood is Size/2 channels either
// side of the centre, so Size must be odd (an even one would normalise
// over Size+1 channels while dividing α by Size) and positive.
func (l *LRN) OutShape(ins []tensor.Shape) tensor.Shape {
	if l.Size <= 0 || l.Size%2 == 0 {
		panic(fmt.Sprintf("nn: lrn size %d must be positive and odd", l.Size))
	}
	return oneShape(ins)
}

// lrnChunk is how many positions of a plane LRN normalises at a time:
// their float64 square sums fit a 2 KB array on the worker's stack.
const lrnChunk = 256

// lrnPowSteps prices an element's math.Pow in parallel.ForCost steps:
// ~55 ns a call, paid by the one element in three a ReLU leaves non-zero.
const lrnPowSteps = 20

// Forward implements Layer. Channel planes are independent work items.
// Squares are summed channel-major into a chunk of per-position
// accumulators — each position still receives channels lo..hi in order —
// and a zero input is written straight through when its scale cannot be
// anything but a number in [1, +Inf]: base ≥ 1 (false for NaN) and
// β ≥ 0, where float32(float64(±0)/scale) is that same ±0. After a ReLU
// that is two elements in three, and each skips a math.Pow.
func (l *LRN) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	out := tensor.New(l.OutShape([]tensor.Shape{one(ins).Shape()}))
	l.ForwardInto(ins, out)
	return out
}

// ForwardInto is Forward into out, a tensor of the shape OutShape
// reports that may hold anything: every output element is written.
func (l *LRN) ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor) {
	in := one(ins)
	s := l.OutShape([]tensor.Shape{in.Shape()})
	mustOutShape(s, out)
	r := lrnRun{
		in: in.Data(), out: out.Data(), channels: s.C, plane: s.H * s.W,
		half: l.Size / 2, aos: l.Alpha / float64(l.Size), k: l.K, beta: l.Beta,
	}
	parallel.ForCost(s.N*s.C, r.plane*(l.Size+lrnPowSteps), r, lrnRun.normalize)
}

// lrnRun is one Forward's operands.
type lrnRun struct {
	in, out               []float32
	channels, plane, half int
	aos, k, beta          float64 // aos is α over Size
}

// normalize computes plane u (image × channel).
func (r lrnRun) normalize(_, u int) {
	c := u % r.channels
	first := u - c // channel 0 of this image
	lo, hi := max(c-r.half, 0), min(c+r.half, r.channels-1)
	var sq [lrnChunk]float64
	for p0 := 0; p0 < r.plane; p0 += lrnChunk {
		acc := sq[:min(lrnChunk, r.plane-p0)]
		clear(acc)
		for cc := lo; cc <= hi; cc++ {
			x := r.in[(first+cc)*r.plane+p0:][:len(acc)]
			for j, v := range x {
				f := float64(v)
				acc[j] += f * f
			}
		}
		x := r.in[u*r.plane+p0:][:len(acc)]
		y := r.out[u*r.plane+p0:][:len(acc)]
		for j, v := range x {
			base := r.k + r.aos*acc[j]
			if v == 0 && base >= 1 && r.beta >= 0 {
				y[j] = v
				continue
			}
			y[j] = float32(float64(v) / math.Pow(base, r.beta))
		}
	}
}

// Concat concatenates its inputs along the channel dimension — the join
// at the end of every GoogLeNet inception module and SqueezeNet fire
// module.
type Concat struct{}

// OutShape implements Layer.
func (Concat) OutShape(ins []tensor.Shape) tensor.Shape {
	if len(ins) == 0 {
		panic("nn: concat with no inputs")
	}
	out := ins[0]
	for _, s := range ins[1:] {
		if s.N != out.N || s.H != out.H || s.W != out.W {
			panic(fmt.Sprintf("nn: concat shape mismatch %v vs %v", out, s))
		}
		out.C += s.C
	}
	return out
}

// Forward implements Layer.
func (c Concat) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	var buf [8]tensor.Shape
	out := tensor.New(c.OutShape(appendShapes(buf[:0], ins)))
	c.ForwardInto(ins, out)
	return out
}

// ForwardInto is Forward into out, a tensor of the shape OutShape
// reports that may hold anything: every output plane is copied from an
// input plane.
func (c Concat) ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor) {
	var buf [8]tensor.Shape
	os := c.OutShape(appendShapes(buf[:0], ins))
	mustOutShape(os, out)
	outd := out.Data()
	plane := os.H * os.W
	for n := 0; n < os.N; n++ {
		cOff := 0
		for _, t := range ins {
			s := t.Shape()
			src := t.Data()[n*s.C*plane : (n+1)*s.C*plane]
			copy(outd[(n*os.C+cOff)*plane:], src)
			cOff += s.C
		}
	}
}

// appendShapes appends the shapes of ins to dst. Concat passes an empty
// slice of a stack array, so up to eight inputs allocate nothing.
func appendShapes(dst []tensor.Shape, ins []*tensor.Tensor) []tensor.Shape {
	for _, t := range ins {
		dst = append(dst, t.Shape())
	}
	return dst
}

// Softmax normalizes the channel dimension into a probability
// distribution per batch element.
type Softmax struct{}

// OutShape implements Layer.
func (Softmax) OutShape(ins []tensor.Shape) tensor.Shape { return oneShape(ins) }

// Forward implements Layer.
func (Softmax) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	in := one(ins)
	s := in.Shape()
	out := tensor.New(s)
	per := s.C * s.H * s.W
	ind, outd := in.Data(), out.Data()
	for n := 0; n < s.N; n++ {
		x := ind[n*per : (n+1)*per]
		y := outd[n*per : (n+1)*per]
		m := float32(math.Inf(-1))
		for _, v := range x {
			if v > m {
				m = v
			}
		}
		var sum float64
		for i, v := range x {
			e := math.Exp(float64(v - m))
			y[i] = float32(e)
			sum += e
		}
		for i := range y {
			y[i] = float32(float64(y[i]) / sum)
		}
	}
	return out
}
