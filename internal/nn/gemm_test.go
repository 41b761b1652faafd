package nn

import (
	"fmt"
	"math"
	"testing"

	"snapea/internal/tensor"
)

func TestMatMulSmall(t *testing.T) {
	// A = [1 2; 3 4] (2×2), B rows = [5 6], [7 8], dst seeded with
	// [100 200] per row → dst += A×Bᵀ
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	dst := []float32{100, 200, 100, 200}
	MatMul(a, 2, 2, b, 2, dst)
	want := []float32{117, 223, 139, 253}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("matmul[%d] = %g want %g", i, dst[i], want[i])
		}
	}
}

func TestMatMulPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul([]float32{1}, 2, 2, []float32{1, 2}, 1, make([]float32, 2))
}

// directConv is the direct (non-im2col) convolution loop the graph
// executor ran before it adopted the GEMM body. It is kept here, serial,
// as the independently-derived oracle for that body: the accumulator
// starts at the bias and adds taps in (ci, ky, kx) order, skipping the
// padded ones.
func directConv(c *Conv2D, in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	os := c.OutShape([]tensor.Shape{s})
	out := tensor.New(os)
	inCg := c.InC / c.Groups
	outCg := c.OutC / c.Groups
	ind := in.Data()
	outd := out.Data()
	wd := c.Weights.Data()
	for n := 0; n < s.N; n++ {
		for k := 0; k < c.OutC; k++ {
			cBase := (k / outCg) * inCg
			wBase := k * inCg * c.KH * c.KW
			for oy := 0; oy < os.H; oy++ {
				iy0 := oy*c.StrideH - c.PadH
				for ox := 0; ox < os.W; ox++ {
					ix0 := ox*c.StrideW - c.PadW
					acc := c.Bias[k]
					for ci := 0; ci < inCg; ci++ {
						inBase := ((n*s.C + cBase + ci) * s.H) * s.W
						wBaseC := wBase + ci*c.KH*c.KW
						for ky := 0; ky < c.KH; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= s.H {
								continue
							}
							for kx := 0; kx < c.KW; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= s.W {
									continue
								}
								acc += ind[inBase+iy*s.W+ix] * wd[wBaseC+ky*c.KW+kx]
							}
						}
					}
					if c.ReLU && acc < 0 {
						acc = 0
					}
					outd[((n*os.C+k)*os.H+oy)*os.W+ox] = acc
				}
			}
		}
	}
	return out
}

// diffBits describes the first element where got and want differ in any
// bit, or returns "" when they agree everywhere.
func diffBits(got, want *tensor.Tensor) string {
	if !got.Shape().Eq(want.Shape()) {
		return fmt.Sprintf("shape %v, want %v", got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if g, w := math.Float32bits(gd[i]), math.Float32bits(wd[i]); g != w {
			return fmt.Sprintf("output[%d] = %g (%#08x), want %g (%#08x)", i, gd[i], g, wd[i], w)
		}
	}
	return ""
}

// TestGEMMMatchesDirect holds the one dense convolution to bit equality
// with the direct-loop oracle, over every geometry the evaluated
// networks use and a seeded sweep of random small ones. Equality, not
// tolerance, is what lets calibrated biases, trained heads, tuned
// params and ledger digests survive the executor's move onto GEMM.
//
// The one place bits may legitimately differ is a padded tap: the
// oracle skips it, GEMM adds 0*w. That is invisible unless the
// accumulator is still -0 when it happens (a -0 bias; x + 0 keeps every
// other x) or w is non-finite (0*Inf is NaN). randConv excludes both by
// construction — finite normal weights, biases from a continuous
// distribution — and TestGEMMExecutesPaddedTaps pins the -0 case.
func TestGEMMMatchesDirect(t *testing.T) {
	type geom struct {
		name                          string
		inC, outC, k, stride, pad, gr int
		relu                          bool
		n, hw                         int
	}
	cases := []geom{
		{"alexnet-stem", 3, 8, 11, 4, 0, 1, true, 2, 23},
		{"squeezenet-stem", 3, 8, 7, 2, 0, 1, true, 2, 17},
		{"grouped", 8, 8, 5, 1, 2, 2, true, 2, 9},
		{"same-pad", 6, 10, 3, 1, 1, 1, true, 2, 8},
		{"pointwise", 12, 6, 1, 1, 0, 1, false, 2, 5},
		{"vgg-3x3", 16, 32, 3, 1, 1, 1, true, 2, 16},
		{"inception-5x5", 4, 8, 5, 1, 2, 1, true, 2, 7},
		{"googlenet-stem", 3, 16, 7, 2, 3, 1, true, 2, 20},
		{"grouped-batch3", 8, 12, 3, 1, 1, 2, true, 3, 13},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := randConv(t, tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.gr, tc.relu, 77)
			in := randInput(tensor.Shape{N: tc.n, C: tc.inC, H: tc.hw, W: tc.hw}, 78)
			if d := diffBits(c.ForwardGEMM(in), directConv(c, in)); d != "" {
				t.Fatal(d)
			}
		})
	}
	t.Run("sweep", func(t *testing.T) {
		rng := tensor.NewRNG(79)
		for i := 0; i < 200; i++ {
			gr := 1 + rng.Intn(3)
			k := 1 + rng.Intn(5)
			tc := geom{
				inC: gr * (1 + rng.Intn(4)), outC: gr * (1 + rng.Intn(4)),
				k: k, stride: 1 + rng.Intn(3), pad: rng.Intn(k), gr: gr,
				relu: rng.Intn(2) == 0, n: 1 + rng.Intn(3), hw: k + rng.Intn(9),
			}
			c := randConv(t, tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.gr, tc.relu, 1000+uint64(i))
			in := tensor.New(tensor.Shape{N: tc.n, C: tc.inC, H: tc.hw, W: tc.hw})
			tensor.FillUniform(in, rng, -1, 1)
			if d := diffBits(c.ForwardGEMM(in), directConv(c, in)); d != "" {
				t.Fatalf("geometry %d %+v: %s", i, tc, d)
			}
		}
	})
}

// TestGEMMExecutesPaddedTaps pins the documented exception: GEMM
// executes a padded tap as 0*w (as snapea's runReference does) where
// the oracle skips it, so a -0 accumulator that the oracle carries
// through a border window becomes +0.
func TestGEMMExecutesPaddedTaps(t *testing.T) {
	c := NewConv2D(1, 1, 3, 3, 1, 1, 1, false)
	c.Weights.Fill(1)
	c.Bias[0] = float32(math.Copysign(0, -1))
	// A -0 input keeps the one real tap at -0 (a +0 product would turn
	// the accumulator to +0 in both implementations).
	in := tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: 1})
	in.Data()[0] = float32(math.Copysign(0, -1))
	if got := math.Float32bits(directConv(c, in).Data()[0]); got != 1<<31 {
		t.Fatalf("oracle = %#08x, want -0", got)
	}
	if got := math.Float32bits(c.ForwardGEMM(in).Data()[0]); got != 0 {
		t.Fatalf("GEMM = %#08x, want +0 from the eight padded 0*w taps", got)
	}
}

func TestIm2ColShapeAndZeroPadding(t *testing.T) {
	c := NewConv2D(2, 2, 3, 3, 1, 1, 1, false)
	in := tensor.New(tensor.Shape{N: 1, C: 2, H: 4, W: 4})
	in.Fill(1)
	cols, rows, k := Im2Col(c, in, 0, 0)
	if rows != 16 || k != 18 {
		t.Fatalf("im2col dims %d×%d", rows, k)
	}
	if len(cols) != rows*k {
		t.Fatalf("len %d", len(cols))
	}
	// Corner window (0,0): taps outside the image must be zero — for a
	// 3×3 kernel at the top-left corner, 5 of 9 taps per channel are
	// out of bounds.
	zeros := 0
	for i := 0; i < k; i++ {
		if cols[i] == 0 {
			zeros++
		}
	}
	if zeros != 10 { // 5 per channel × 2 channels
		t.Fatalf("corner zeros %d, want 10", zeros)
	}
}
