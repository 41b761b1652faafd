package nn

import "snapea/internal/tensor"

// This file holds the im2col and GEMM primitives of the dense
// convolution (Conv2D.forward in conv.go), the one every dense forward
// in the repo and the benchmark ledger's baseline run. The direct
// per-window loop survives only as the bit-exact oracle in gemm_test.go.

// Im2Col expands the input's convolution windows into a row-major matrix
// of shape (outH*outW) × (inCg*KH*KW) for the given batch element and
// channel group. Out-of-bounds taps contribute zeros.
func Im2Col(c *Conv2D, in *tensor.Tensor, n, group int) ([]float32, int, int) {
	return Im2ColInto(c, in, n, group, nil)
}

// Im2ColInto is Im2Col writing into buf when its capacity suffices,
// allocating only otherwise — the engine's workers reuse one buffer per
// worker across every (batch, group) unit, which removes the per-window
// allocation that dominated GoogLeNet's 1×1-heavy layers. Every slot is
// written (zeros included), so a dirty buffer is safe to reuse.
func Im2ColInto(c *Conv2D, in *tensor.Tensor, n, group int, buf []float32) ([]float32, int, int) {
	s := in.Shape()
	inCg := c.InC / c.Groups
	oh := (s.H+2*c.PadH-c.KH)/c.StrideH + 1
	ow := (s.W+2*c.PadW-c.KW)/c.StrideW + 1
	rows := oh * ow
	cols := inCg * c.KH * c.KW
	out := buf
	if cap(out) < rows*cols {
		out = make([]float32, rows*cols)
	} else {
		out = out[:rows*cols]
	}
	ind := in.Data()
	cBase := group * inCg
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := (oy*ow + ox) * cols
			i := 0
			for ci := 0; ci < inCg; ci++ {
				base := (n*s.C + cBase + ci) * s.H * s.W
				for ky := 0; ky < c.KH; ky++ {
					iy := oy*c.StrideH - c.PadH + ky
					for kx := 0; kx < c.KW; kx++ {
						ix := ox*c.StrideW - c.PadW + kx
						if iy >= 0 && iy < s.H && ix >= 0 && ix < s.W {
							out[row+i] = ind[base+iy*s.W+ix]
						} else {
							out[row+i] = 0
						}
						i++
					}
				}
			}
		}
	}
	return out, rows, cols
}

// MatMul accumulates A×Bᵀ into dst, where A is m×k (row-major), B is
// n×k (row-major) and dst is m×n. This layout matches im2col rows times
// kernel rows. Each dot product starts from the value already in its
// dst slot and adds taps left to right; seeded with the bias, that is
// the (bias, ci, ky, kx) order of a direct convolution loop, so the
// result is bit-identical to one rather than merely close.
func MatMul(a []float32, m, k int, b []float32, n int, dst []float32) {
	if len(a) < m*k || len(b) < n*k || len(dst) < m*n {
		panic("nn: MatMul dimension mismatch")
	}
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			br := b[j*k : (j+1)*k]
			acc := dst[i*n+j]
			for t := 0; t < k; t++ {
				acc += ar[t] * br[t]
			}
			dst[i*n+j] = acc
		}
	}
}
