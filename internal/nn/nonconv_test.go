package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// The LRN, max-pool and fully-connected bodies are performance
// restructurings of three plain loops. Those loops are kept here,
// serial, as oracles — the way directConv is for the convolution — and
// the bodies are held to Float32bits equality with them: calibrated
// biases, trained heads, tuned params and ledger digests all sit
// downstream of these layers and must not move.

// lrnDirect is the LRN loop the graph executor ran before the chunked
// body: one float64 square sum over channels lo..hi and one math.Pow
// per element.
func lrnDirect(l *LRN, in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(s)
	ind, outd := in.Data(), out.Data()
	half := l.Size / 2
	plane := s.H * s.W
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			lo := c - half
			if lo < 0 {
				lo = 0
			}
			hi := c + half
			if hi >= s.C {
				hi = s.C - 1
			}
			for p := 0; p < plane; p++ {
				var sq float64
				for cc := lo; cc <= hi; cc++ {
					v := float64(ind[(n*s.C+cc)*plane+p])
					sq += v * v
				}
				scale := math.Pow(l.K+l.Alpha/float64(l.Size)*sq, l.Beta)
				idx := (n*s.C+c)*plane + p
				outd[idx] = float32(float64(ind[idx]) / scale)
			}
		}
	}
	return out
}

// maxPoolDirect is the window-major max-pool loop: every output walks
// its own window in (ky, kx) order, testing both bounds per tap.
func maxPoolDirect(p *MaxPool2D, in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	os := p.OutShape([]tensor.Shape{s})
	out := tensor.New(os)
	ind, outd := in.Data(), out.Data()
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			base := (n*s.C + c) * s.H * s.W
			for oy := 0; oy < os.H; oy++ {
				for ox := 0; ox < os.W; ox++ {
					m := float32(math.Inf(-1))
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
							if v := ind[base+iy*s.W+ix]; v > m {
								m = v
							}
						}
					}
					outd[((n*os.C+c)*os.H+oy)*os.W+ox] = m
				}
			}
		}
	}
	return out
}

// fcDirect is the one-accumulator fully-connected loop.
func fcDirect(f *FC, in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(f.OutShape([]tensor.Shape{s}))
	per := s.C * s.H * s.W
	ind, outd, wd := in.Data(), out.Data(), f.Weights.Data()
	for n := 0; n < s.N; n++ {
		x := ind[n*per : (n+1)*per]
		for o := 0; o < f.Out; o++ {
			w := wd[o*f.In : (o+1)*f.In]
			acc := f.Bias[o]
			for i, xv := range x {
				acc += xv * w[i]
			}
			if f.ReLU && acc < 0 {
				acc = 0
			}
			outd[n*f.Out+o] = acc
		}
	}
	return out
}

var (
	negZero = math.Float32frombits(1 << 31)
	nan32   = float32(math.NaN())
	posInf  = float32(math.Inf(1))
	negInf  = float32(math.Inf(-1))
)

// postReLU fills t with what a ReLU convolution leaves behind: about two
// zeros in three, the rest positive.
func postReLU(t *tensor.Tensor, rng *tensor.RNG) {
	for i := range t.Data() {
		if rng.Intn(3) == 0 {
			t.Data()[i] = float32(rng.Float64() * 4)
		}
	}
}

// sprinkle overwrites about one element in `every` with a draw from
// specials.
func sprinkle(t *tensor.Tensor, rng *tensor.RNG, every int, specials ...float32) {
	for i := range t.Data() {
		if rng.Intn(every) == 0 {
			t.Data()[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// atWorkers runs fn under each worker limit, then restores the default.
func atWorkers(t *testing.T, counts []int, fn func(workers int)) {
	t.Helper()
	defer parallel.SetLimit(0)
	for _, w := range counts {
		parallel.SetLimit(w)
		fn(w)
	}
}

// TestLRNMatchesDirect sweeps 240 seeded geometries and parameter sets:
// every odd Size up to 9 (wider than the channel count included), planes
// on both sides of lrnChunk, α/β/K drawn so that the zero pass-through
// is sometimes legal (K ≥ 1, α ≥ 0, β ≥ 0) and sometimes not (K < 1, K =
// 0, negative α or β, β = 0), and inputs that are post-ReLU sparse with
// signed zeros, then with NaN and ±Inf sprinkled in so that zero centres
// get non-finite neighbours.
func TestLRNMatchesDirect(t *testing.T) {
	ks := []float64{1, 2, 0.5, 0, 1, math.Inf(1)}
	alphas := []float64{1e-4, 0.3, 0, -0.2, 50}
	betas := []float64{0.75, 0, 1, -0.5, 2}
	for it := 0; it < 240; it++ {
		rng := tensor.NewRNG(uint64(9000 + it))
		l := &LRN{
			Size:  1 + 2*rng.Intn(5),
			K:     ks[rng.Intn(len(ks))],
			Alpha: alphas[rng.Intn(len(alphas))],
			Beta:  betas[rng.Intn(len(betas))],
		}
		if it%4 == 0 {
			l = DefaultLRN()
		}
		shape := tensor.Shape{N: 1 + rng.Intn(3), C: 1 + rng.Intn(12), H: 1 + rng.Intn(20), W: 1 + rng.Intn(20)}
		if it%40 == 1 {
			shape.H, shape.W = 23, 29 // several chunks and a ragged last one
		}
		in := tensor.New(shape)
		postReLU(in, rng)
		sprinkle(in, rng, 5, negZero)
		if it%2 == 1 {
			sprinkle(in, rng, 9, nan32, posInf, negInf, -1.5, negZero)
		}
		label := fmt.Sprintf("it=%d %+v on %v", it, *l, shape)
		want := lrnDirect(l, in)
		atWorkers(t, []int{1, 3}, func(w int) {
			if d := diffBits(l.Forward([]*tensor.Tensor{in}), want); d != "" {
				t.Fatalf("%s workers=%d: %s", label, w, d)
			}
		})
	}
}

// TestLRNZeroPassThroughKeepsSign pins the shortcut's two promises on a
// hand-built column: ±0 comes out as the same ±0 when the scale is a
// number ≥ 1, and a zero whose neighbourhood holds a NaN — or whose base
// is Inf·0 — still comes out NaN, as dividing by a NaN scale does.
func TestLRNZeroPassThroughKeepsSign(t *testing.T) {
	in := tensor.Wrap(tensor.Shape{N: 1, C: 3, H: 1, W: 4}, []float32{
		0, negZero, 0, 0, // centre channel 0
		2, 3, nan32, posInf, // the neighbours
		negZero, 0, negZero, 1,
	})
	for _, l := range []*LRN{DefaultLRN(), {Size: 3, Alpha: 0, Beta: 0.75, K: 1}} {
		got := l.Forward([]*tensor.Tensor{in})
		if d := diffBits(got, lrnDirect(l, in)); d != "" {
			t.Fatalf("%+v: %s", *l, d)
		}
		d := got.Data()
		if math.Float32bits(d[0]) != 0 || math.Float32bits(d[1]) != 1<<31 {
			t.Fatalf("%+v: zeros came out as %v %v, want +0 -0", *l, d[0], d[1])
		}
		if d[2] == d[2] {
			t.Fatalf("%+v: zero beside a NaN came out %v, want NaN", *l, d[2])
		}
		if l.Alpha == 0 && d[3] == d[3] {
			t.Fatalf("α = 0: zero beside +Inf came out %v, want NaN (0·Inf base)", d[3])
		}
	}
}

// TestLRNRejectsBadSize: Size ≤ 0 divides α by zero, and an even Size
// would normalise over Size+1 channels while dividing by Size. OutShape
// rejects both, so a graph holding one fails when it is built.
func TestLRNRejectsBadSize(t *testing.T) {
	for _, size := range []int{0, -3, 2, 4} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprintf("lrn size %d", size)) {
					t.Fatalf("Size=%d: panic %q, want a message naming the size", size, msg)
				}
			}()
			l := &LRN{Size: size, Alpha: 1e-4, Beta: 0.75, K: 1}
			l.OutShape([]tensor.Shape{{N: 1, C: 4, H: 2, W: 2}})
		}()
	}
}

// TestMaxPoolMatchesDirect sweeps 240 seeded geometries: K 1–5 and K = H
// (one output row), strides 1–3, pads up to K-1, floor and ceil mode —
// ceil with a last window that overhangs the padded input, and at K = 1
// with pad ≥ 1 windows made of padding only, whose maximum is -Inf. The
// values come from a handful of levels so ties are everywhere, +0 and
// -0 among them, and every other case has NaN and ±Inf sprinkled in:
// `v > m` keeps the first of two equal values and never takes a NaN.
func TestMaxPoolMatchesDirect(t *testing.T) {
	levels := []float32{0, negZero, 1, 1, -2, 0.5, 3}
	overhang, allPadding := 0, 0
	for it := 0; it < 240; it++ {
		rng := tensor.NewRNG(uint64(7000 + it))
		shape := tensor.Shape{N: 1 + rng.Intn(2), C: 1 + rng.Intn(3), H: 1 + rng.Intn(14), W: 1 + rng.Intn(14)}
		p := &MaxPool2D{K: 1 + rng.Intn(5), Stride: 1 + rng.Intn(3), Ceil: rng.Intn(2) == 0}
		if it%6 == 0 {
			shape.W = shape.H
			p.K = shape.H
		}
		p.Pad = rng.Intn(p.K)
		if it%10 == 3 {
			p.K, p.Pad = 1, 1+rng.Intn(2)
		}
		if shape.H+2*p.Pad < p.K || shape.W+2*p.Pad < p.K {
			shape.H, shape.W = p.K, p.K+1
		}
		in := tensor.New(shape)
		for i := range in.Data() {
			in.Data()[i] = levels[rng.Intn(len(levels))]
		}
		if it%2 == 1 {
			sprinkle(in, rng, 7, nan32, posInf, negInf)
		}
		label := fmt.Sprintf("it=%d %+v on %v", it, *p, shape)
		want := maxPoolDirect(p, in)
		os := want.Shape()
		if (os.W-1)*p.Stride-p.Pad+p.K > shape.W+p.Pad {
			overhang++
		}
		for _, v := range want.Data() {
			if v == negInf && it%2 == 0 {
				allPadding++
				break
			}
		}
		atWorkers(t, []int{1, 3}, func(w int) {
			if d := diffBits(p.Forward([]*tensor.Tensor{in}), want); d != "" {
				t.Fatalf("%s workers=%d: %s", label, w, d)
			}
		})
	}
	if overhang < 10 || allPadding < 10 {
		t.Fatalf("sweep drew %d overhanging last windows and %d all-padding windows; it has lost its corners", overhang, allPadding)
	}
}

// TestFCMatchesDirect sweeps 240 seeded shapes: Out on every residue mod
// 4 (Out < 4 included, where there is no full block), batch 1 and 3,
// ReLU on and off, inputs flat and as a C×H×W volume.
func TestFCMatchesDirect(t *testing.T) {
	for it := 0; it < 240; it++ {
		rng := tensor.NewRNG(uint64(5000 + it))
		shape := tensor.Shape{N: 1 + 2*(it%2), C: 1 + rng.Intn(40), H: 1 + rng.Intn(3), W: 1 + rng.Intn(3)}
		f := NewFC(shape.C*shape.H*shape.W, 1+it%11+4*rng.Intn(6), it%4 < 2)
		tensor.FillNorm(f.Weights, rng, 0, 0.5)
		for i := range f.Bias {
			f.Bias[i] = float32(rng.Norm() * 0.1)
		}
		in := tensor.New(shape)
		tensor.FillUniform(in, rng, -1, 1)
		label := fmt.Sprintf("it=%d %d->%d relu=%v on %v", it, f.In, f.Out, f.ReLU, shape)
		want := fcDirect(f, in)
		atWorkers(t, []int{1, 3}, func(w int) {
			if d := diffBits(f.Forward([]*tensor.Tensor{in}), want); d != "" {
				t.Fatalf("%s workers=%d: %s", label, w, d)
			}
		})
	}
}

// nonConvCases are the three bodies at sizes that fan out (each well
// over parallel.InlineSteps), with their oracles.
type nonConvCase struct {
	name   string
	layer  Layer
	in     *tensor.Tensor
	steps  int // the loop's price, as the body computes it
	direct func(*tensor.Tensor) *tensor.Tensor
}

func nonConvCases() []nonConvCase {
	rng := tensor.NewRNG(404)
	lrnIn := tensor.New(tensor.Shape{N: 2, C: 24, H: 19, W: 17})
	postReLU(lrnIn, rng)
	sprinkle(lrnIn, rng, 6, negZero)
	poolIn := tensor.New(tensor.Shape{N: 2, C: 40, H: 45, W: 45})
	tensor.FillUniform(poolIn, rng, -1, 1)
	sprinkle(poolIn, rng, 11, 0, negZero, nan32)
	fc := NewFC(18*3*3, 1030, true)
	tensor.FillNorm(fc.Weights, rng, 0, 0.5)
	fcIn := tensor.New(tensor.Shape{N: 3, C: 18, H: 3, W: 3})
	tensor.FillUniform(fcIn, rng, -1, 1)
	lrn := DefaultLRN()
	pool := &MaxPool2D{K: 3, Stride: 2, Pad: 1, Ceil: true}
	return []nonConvCase{
		{"lrn", lrn, lrnIn, 2 * 24 * 19 * 17 * (5 + lrnPowSteps), func(in *tensor.Tensor) *tensor.Tensor { return lrnDirect(lrn, in) }},
		{"maxpool", pool, poolIn, 2 * 40 * 23 * 23 * 3 * 3, func(in *tensor.Tensor) *tensor.Tensor { return maxPoolDirect(pool, in) }},
		{"fc", fc, fcIn, 3 * 258 * 4 * fc.In, func(in *tensor.Tensor) *tensor.Tensor { return fcDirect(fc, in) }},
	}
}

// TestNonConvWorkerInvariance runs LRN, max pooling and FC — at sizes
// that do fan out — at workers 1/2/3/8 and holds every run to the serial
// oracle, bit for bit. `make invariance` picks it up by name and runs it
// under -race with two real cores.
func TestNonConvWorkerInvariance(t *testing.T) {
	for _, tc := range nonConvCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.steps < 2*parallel.InlineSteps {
				t.Fatalf("%d steps against parallel.InlineSteps = %d: the case no longer fans out with room to spare", tc.steps, parallel.InlineSteps)
			}
			want := tc.direct(tc.in)
			atWorkers(t, []int{1, 2, 3, 8}, func(w int) {
				if d := diffBits(tc.layer.Forward([]*tensor.Tensor{tc.in}), want); d != "" {
					t.Fatalf("workers=%d: %s", w, d)
				}
			})
		})
	}
}
