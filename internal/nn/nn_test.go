package nn

import (
	"math"
	"testing"

	"snapea/internal/tensor"
)

// refConv is a dead-simple reference convolution used to validate the
// optimized Forward.
func refConv(c *Conv2D, in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	os := c.OutShape([]tensor.Shape{s})
	out := tensor.New(os)
	inCg := c.InC / c.Groups
	outCg := c.OutC / c.Groups
	for n := 0; n < s.N; n++ {
		for k := 0; k < c.OutC; k++ {
			g := k / outCg
			for oy := 0; oy < os.H; oy++ {
				for ox := 0; ox < os.W; ox++ {
					acc := float64(c.Bias[k])
					for ci := 0; ci < inCg; ci++ {
						for ky := 0; ky < c.KH; ky++ {
							for kx := 0; kx < c.KW; kx++ {
								iy := oy*c.StrideH - c.PadH + ky
								ix := ox*c.StrideW - c.PadW + kx
								if iy < 0 || iy >= s.H || ix < 0 || ix >= s.W {
									continue
								}
								w := c.Weights.At(k, ci, ky, kx)
								x := in.At(n, g*inCg+ci, iy, ix)
								acc += float64(w) * float64(x)
							}
						}
					}
					if c.ReLU && acc < 0 {
						acc = 0
					}
					out.Set(n, k, oy, ox, float32(acc))
				}
			}
		}
	}
	return out
}

func randConv(t *testing.T, inC, outC, k, stride, pad, groups int, relu bool, seed uint64) *Conv2D {
	t.Helper()
	c := NewConv2D(inC, outC, k, k, stride, pad, groups, relu)
	rng := tensor.NewRNG(seed)
	tensor.FillNorm(c.Weights, rng, 0, 0.5)
	for i := range c.Bias {
		c.Bias[i] = float32(rng.Norm() * 0.1)
	}
	return c
}

func randInput(shape tensor.Shape, seed uint64) *tensor.Tensor {
	in := tensor.New(shape)
	tensor.FillUniform(in, tensor.NewRNG(seed), 0, 1)
	return in
}

func TestConvMatchesReference(t *testing.T) {
	cases := []struct {
		name                          string
		inC, outC, k, stride, pad, gr int
		relu                          bool
		hw                            int
	}{
		{"1x1", 4, 8, 1, 1, 0, 1, true, 6},
		{"3x3pad", 3, 5, 3, 1, 1, 1, true, 8},
		{"5x5stride2", 4, 6, 5, 2, 2, 1, false, 11},
		{"grouped", 4, 6, 3, 1, 1, 2, true, 7},
		{"7x7stride2nopad", 3, 4, 7, 2, 0, 1, true, 15},
		{"11x11stride4", 3, 4, 11, 4, 0, 1, true, 23},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := randConv(t, tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.gr, tc.relu, 11)
			in := randInput(tensor.Shape{N: 2, C: tc.inC, H: tc.hw, W: tc.hw}, 13)
			got := c.Forward([]*tensor.Tensor{in})
			want := refConv(c, in)
			if d := got.AbsDiffMax(want); d > 1e-4 {
				t.Fatalf("conv mismatch: max abs diff %g", d)
			}
			if !got.Shape().Eq(c.OutShape([]tensor.Shape{in.Shape()})) {
				t.Fatalf("shape mismatch: %v", got.Shape())
			}
		})
	}
}

func TestConvPreActivationKeepsNegatives(t *testing.T) {
	c := randConv(t, 3, 8, 3, 1, 1, 1, true, 3)
	in := randInput(tensor.Shape{N: 1, C: 3, H: 8, W: 8}, 5)
	pre := c.PreActivation(in)
	if pre.CountNegative() == 0 {
		t.Fatal("expected some negative pre-activations")
	}
	if !c.ReLU {
		t.Fatal("PreActivation must restore the ReLU flag")
	}
	post := c.Forward([]*tensor.Tensor{in})
	if post.CountNegative() != 0 {
		t.Fatal("fused ReLU output must be non-negative")
	}
	// ReLU(pre) == post, element-wise.
	pd, qd := pre.Data(), post.Data()
	for i := range pd {
		want := pd[i]
		if want < 0 {
			want = 0
		}
		if want != qd[i] {
			t.Fatalf("elem %d: relu(pre)=%g post=%g", i, want, qd[i])
		}
	}
}

// TestConvPreActivationConcurrentWithForward runs both entry points on
// one layer at once, as calibration beside a serving graph would: graphs
// and compiled networks alias the layer, so PreActivation must not
// switch the shared ReLU flag off under a concurrent Forward. Run under
// -race (make race) this fails on any write to the field.
func TestConvPreActivationConcurrentWithForward(t *testing.T) {
	c := randConv(t, 3, 8, 3, 1, 1, 1, true, 3)
	in := randInput(tensor.Shape{N: 2, C: 3, H: 8, W: 8}, 5)
	ins := []*tensor.Tensor{in}
	wantPre, wantPost := c.PreActivation(in), c.Forward(ins)

	runs := []struct {
		name string
		run  func() *tensor.Tensor
		want *tensor.Tensor
	}{
		{"PreActivation", func() *tensor.Tensor { return c.PreActivation(in) }, wantPre},
		{"Forward", func() *tensor.Tensor { return c.Forward(ins) }, wantPost},
	}
	errs := make(chan string, len(runs))
	for _, r := range runs {
		go func() {
			for i := 0; i < 50; i++ {
				if d := diffBits(r.run(), r.want); d != "" {
					errs <- r.name + ": " + d
					return
				}
			}
			errs <- ""
		}()
	}
	for range runs {
		if e := <-errs; e != "" {
			t.Error(e)
		}
	}
}

func TestMaxPool(t *testing.T) {
	in := tensor.Wrap(tensor.Shape{N: 1, C: 1, H: 4, W: 4}, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	p := &MaxPool2D{K: 2, Stride: 2}
	out := p.Forward([]*tensor.Tensor{in})
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Fatalf("maxpool[%d] = %g, want %g", i, out.Data()[i], v)
		}
	}
}

func TestMaxPoolCeilMode(t *testing.T) {
	in := randInput(tensor.Shape{N: 1, C: 2, H: 8, W: 8}, 9)
	floor := &MaxPool2D{K: 3, Stride: 2}
	ceil := &MaxPool2D{K: 3, Stride: 2, Ceil: true}
	sf := floor.OutShape([]tensor.Shape{in.Shape()})
	sc := ceil.OutShape([]tensor.Shape{in.Shape()})
	if sf.H != 3 || sc.H != 4 {
		t.Fatalf("pool dims: floor %d ceil %d, want 3 and 4", sf.H, sc.H)
	}
	// Ceil-mode forward must not panic and must fill its extra row/col.
	out := ceil.Forward([]*tensor.Tensor{in})
	if out.Shape() != sc {
		t.Fatalf("ceil pool produced %v", out.Shape())
	}
}

func TestAvgPool(t *testing.T) {
	in := tensor.Wrap(tensor.Shape{N: 1, C: 1, H: 2, W: 2}, []float32{1, 2, 3, 4})
	p := &AvgPool2D{K: 2, Stride: 2}
	out := p.Forward([]*tensor.Tensor{in})
	if out.Data()[0] != 2.5 {
		t.Fatalf("avgpool = %g, want 2.5", out.Data()[0])
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := randInput(tensor.Shape{N: 2, C: 3, H: 5, W: 7}, 21)
	out := GlobalAvgPool{}.Forward([]*tensor.Tensor{in})
	if s := out.Shape(); s != (tensor.Shape{N: 2, C: 3, H: 1, W: 1}) {
		t.Fatalf("gap shape %v", s)
	}
	// Channel mean must match a direct computation.
	want := in.Channel(1, 2).Mean()
	got := float64(out.At(1, 2, 0, 0))
	if math.Abs(got-want) > 1e-5 {
		t.Fatalf("gap mean %g want %g", got, want)
	}
}

func TestFCMatchesManual(t *testing.T) {
	f := NewFC(4, 2, false)
	copy(f.Weights.Data(), []float32{1, 0, -1, 2, 0.5, 0.5, 0.5, 0.5})
	f.Bias = []float32{1, -1}
	in := tensor.Wrap(tensor.Shape{N: 1, C: 4, H: 1, W: 1}, []float32{1, 2, 3, 4})
	out := f.Forward([]*tensor.Tensor{in})
	// 1*1 + 0*2 + -1*3 + 2*4 + 1 = 7 ; 0.5*(1+2+3+4) - 1 = 4
	if out.Data()[0] != 7 || out.Data()[1] != 4 {
		t.Fatalf("fc = %v, want [7 4]", out.Data())
	}
}

func TestFCReLUAndFlatten(t *testing.T) {
	f := NewFC(8, 3, true)
	tensor.FillNorm(f.Weights, tensor.NewRNG(1), 0, 1)
	in := randInput(tensor.Shape{N: 2, C: 2, H: 2, W: 2}, 2)
	out := f.Forward([]*tensor.Tensor{in})
	if out.CountNegative() != 0 {
		t.Fatal("relu fc must be non-negative")
	}
	if s := out.Shape(); s != (tensor.Shape{N: 2, C: 3, H: 1, W: 1}) {
		t.Fatalf("fc shape %v", s)
	}
}

func TestConcat(t *testing.T) {
	a := randInput(tensor.Shape{N: 2, C: 2, H: 3, W: 3}, 1)
	b := randInput(tensor.Shape{N: 2, C: 3, H: 3, W: 3}, 2)
	out := Concat{}.Forward([]*tensor.Tensor{a, b})
	if s := out.Shape(); s != (tensor.Shape{N: 2, C: 5, H: 3, W: 3}) {
		t.Fatalf("concat shape %v", s)
	}
	if out.At(1, 0, 2, 2) != a.At(1, 0, 2, 2) {
		t.Fatal("concat misplaced first input")
	}
	if out.At(1, 3, 1, 1) != b.At(1, 1, 1, 1) {
		t.Fatal("concat misplaced second input")
	}
}

func TestSoftmax(t *testing.T) {
	in := tensor.Wrap(tensor.Shape{N: 2, C: 3, H: 1, W: 1}, []float32{1, 2, 3, -1, 0, 1})
	out := Softmax{}.Forward([]*tensor.Tensor{in})
	for n := 0; n < 2; n++ {
		var sum float64
		for c := 0; c < 3; c++ {
			v := float64(out.At(n, c, 0, 0))
			if v <= 0 || v >= 1 {
				t.Fatalf("softmax value %g out of (0,1)", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("softmax sum %g", sum)
		}
	}
	if out.At(0, 2, 0, 0) <= out.At(0, 0, 0, 0) {
		t.Fatal("softmax must preserve order")
	}
}

func TestLRNBoundsAndIdentityShape(t *testing.T) {
	l := DefaultLRN()
	in := randInput(tensor.Shape{N: 1, C: 8, H: 4, W: 4}, 3)
	out := l.Forward([]*tensor.Tensor{in})
	if !out.Shape().Eq(in.Shape()) {
		t.Fatalf("lrn changed shape: %v", out.Shape())
	}
	// With small alpha the normalization is near-identity but slightly
	// shrinking; every output magnitude must be <= input magnitude.
	for i := range in.Data() {
		gi, go_ := in.Data()[i], out.Data()[i]
		if math.Abs(float64(go_)) > math.Abs(float64(gi))+1e-6 {
			t.Fatalf("lrn grew magnitude at %d: %g -> %g", i, gi, go_)
		}
	}
}

func TestDropoutIsIdentityAtInference(t *testing.T) {
	in := randInput(tensor.Shape{N: 1, C: 4, H: 2, W: 2}, 4)
	out := Dropout{Rate: 0.5}.Forward([]*tensor.Tensor{in})
	if out != in {
		t.Fatal("dropout must pass through at inference")
	}
}

func TestGraphTopologyAndTap(t *testing.T) {
	g := NewGraph()
	c := NewConv2D(3, 4, 3, 3, 1, 1, 1, true)
	tensor.FillNorm(c.Weights, tensor.NewRNG(5), 0, 0.3)
	g.Add("conv", c, InputName)
	g.Add("pool", &MaxPool2D{K: 2, Stride: 2}, "conv")
	g.Add("relu", ReLU{}, "pool")
	in := randInput(tensor.Shape{N: 1, C: 3, H: 8, W: 8}, 6)

	var order []string
	out := g.ForwardTap(in, func(name string, _ *tensor.Tensor) {
		order = append(order, name)
	})
	if len(order) != 3 || order[0] != "conv" || order[2] != "relu" {
		t.Fatalf("tap order %v", order)
	}
	if s := out.Shape(); s != (tensor.Shape{N: 1, C: 4, H: 4, W: 4}) {
		t.Fatalf("graph out shape %v", s)
	}
	if got := g.OutShape(in.Shape()); got != out.Shape() {
		t.Fatalf("OutShape %v != forward %v", got, out.Shape())
	}
}

func TestGraphDiamond(t *testing.T) {
	// input -> a, b ; concat(a, b) — the inception join pattern.
	g := NewGraph()
	ca := NewConv2D(2, 3, 1, 1, 1, 0, 1, true)
	cb := NewConv2D(2, 5, 1, 1, 1, 0, 1, true)
	tensor.FillNorm(ca.Weights, tensor.NewRNG(7), 0, 0.5)
	tensor.FillNorm(cb.Weights, tensor.NewRNG(8), 0, 0.5)
	g.Add("a", ca, InputName)
	g.Add("b", cb, InputName)
	g.Add("join", Concat{}, "a", "b")
	in := randInput(tensor.Shape{N: 1, C: 2, H: 4, W: 4}, 9)
	out := g.Forward(in)
	if s := out.Shape(); s.C != 8 {
		t.Fatalf("diamond concat channels = %d, want 8", s.C)
	}
}

func TestGraphAddPanics(t *testing.T) {
	g := NewGraph()
	g.Add("a", ReLU{}, InputName)
	for name, fn := range map[string]func(){
		"duplicate":     func() { g.Add("a", ReLU{}, InputName) },
		"unknown input": func() { g.Add("b", ReLU{}, "nope") },
		"reserved name": func() { g.Add(InputName, ReLU{}, "a") },
		"no inputs":     func() { g.Add("c", ReLU{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGraphExecOverride(t *testing.T) {
	g := NewGraph()
	g.Add("relu", ReLU{}, InputName)
	in := tensor.Wrap(tensor.Shape{N: 1, C: 2, H: 1, W: 1}, []float32{-1, 1})
	sentinel := tensor.Wrap(tensor.Shape{N: 1, C: 2, H: 1, W: 1}, []float32{42, 42})
	out := g.ForwardExec(in, nil, func(node *Node, ins []*tensor.Tensor) (*tensor.Tensor, bool) {
		if node.Name == "relu" {
			return sentinel, true
		}
		return nil, false
	})
	if out != sentinel {
		t.Fatal("exec override ignored")
	}
}
