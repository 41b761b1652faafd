package nn

import (
	"fmt"

	"snapea/internal/metrics"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// Conv2D is a standard 2-D convolution layer with optional grouped
// convolution (AlexNet uses groups=2) and an optional fused ReLU. The
// fused ReLU is the structure SnaPEA exploits: when ReLU is true, the
// layer's output is max(0, conv), so a provably-negative convolution
// window can be emitted as zero without finishing its MACs.
type Conv2D struct {
	InC, OutC  int
	KH, KW     int
	StrideH    int
	StrideW    int
	PadH, PadW int
	Groups     int
	ReLU       bool
	Weights    *tensor.Tensor // {OutC, InC/Groups, KH, KW}
	Bias       []float32      // len OutC
}

// NewConv2D allocates a convolution layer with zeroed parameters.
func NewConv2D(inC, outC, kh, kw, stride, pad, groups int, relu bool) *Conv2D {
	if groups < 1 {
		groups = 1
	}
	if inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: conv channels %d/%d not divisible by groups %d", inC, outC, groups))
	}
	return &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
		Groups: groups, ReLU: relu,
		Weights: tensor.New(tensor.Shape{N: outC, C: inC / groups, H: kh, W: kw}),
		Bias:    make([]float32, outC),
	}
}

// KernelSize returns the number of weights in one kernel (one output
// channel): Cin/Groups × KH × KW — the paper's Cin,l × Dk × Dk.
func (c *Conv2D) KernelSize() int { return (c.InC / c.Groups) * c.KH * c.KW }

// Kernel returns the flattened weights of output channel k in (c, kh, kw)
// order, aliasing the layer's weight storage.
func (c *Conv2D) Kernel(k int) []float32 {
	sz := c.KernelSize()
	return c.Weights.Data()[k*sz : (k+1)*sz]
}

// ParamCount returns the number of learnable parameters.
func (c *Conv2D) ParamCount() int { return c.OutC*c.KernelSize() + c.OutC }

// OutShape implements Layer.
func (c *Conv2D) OutShape(ins []tensor.Shape) tensor.Shape {
	in := oneShape(ins)
	if in.C != c.InC {
		panic(fmt.Sprintf("nn: conv expects %d input channels, got shape %v", c.InC, in))
	}
	oh := (in.H+2*c.PadH-c.KH)/c.StrideH + 1
	ow := (in.W+2*c.PadW-c.KW)/c.StrideW + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv output collapsed for input %v (k=%dx%d s=%d p=%d)", in, c.KH, c.KW, c.StrideH, c.PadH))
	}
	return tensor.Shape{N: in.N, C: c.OutC, H: oh, W: ow}
}

// Forward implements Layer. It is the one dense convolution every
// caller runs — graph executor, calibration, head training, the
// experiments' dense columns and snapea.Network's unplanned layers —
// with the fused ReLU as configured.
func (c *Conv2D) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	return c.forward(one(ins), c.ReLU)
}

// ForwardGEMM is Forward on a single tensor, under the name the
// benchmark ledger pairs SnaPEA against (speedup_vs_gemm): the baseline
// it measures is the convolution every dense forward executes.
func (c *Conv2D) ForwardGEMM(in *tensor.Tensor) *tensor.Tensor {
	return c.forward(in, c.ReLU)
}

// PreActivation computes the convolution without the fused ReLU. The
// negative-fraction calibration and Figure 1 measure this quantity. It
// does not touch c.ReLU: graphs and compiled networks alias the layer,
// so a concurrent Forward must never observe the flag off.
func (c *Conv2D) PreActivation(in *tensor.Tensor) *tensor.Tensor {
	return c.forward(in, false)
}

// gemmScratch is one worker's reusable im2col and GEMM-result storage.
type gemmScratch struct {
	col []float32
	res []float32
}

// forward is the one convolution arithmetic body: im2col + GEMM (the
// primitives are in gemm.go), with relu a parameter so PreActivation
// never has to write the layer's field. The (batch, group) units fan
// out across the worker pool; each worker owns one scratch pair, so the
// hot loop allocates only once per worker instead of once per unit, and
// per-unit arithmetic is untouched, which keeps the output bit-identical
// for every worker count.
func (c *Conv2D) forward(in *tensor.Tensor, relu bool) *tensor.Tensor {
	s := in.Shape()
	os := c.OutShape([]tensor.Shape{s})
	out := tensor.New(os)
	outd := out.Data()
	outCg := c.OutC / c.Groups
	wd := c.Weights.Data()
	ksz := c.KernelSize()
	units := s.N * c.Groups
	scratch := make([]gemmScratch, parallel.Workers(units))
	var allocC, reuseC *metrics.Counter
	if metrics.Enabled() {
		// One batch of adds per forward pass (not per plane or window):
		// the totals are pure functions of the layer geometry, so the
		// deterministic snapshot cannot see the worker count.
		metrics.C("nn.conv.forward_calls", nil).Add(1)
		metrics.C("nn.conv.planes", nil).Add(int64(s.N) * int64(c.OutC))
		metrics.C("nn.conv.macs", nil).Add(int64(s.N) * int64(c.OutC) * int64(os.H) * int64(os.W) * int64(ksz))
		metrics.C("nn.gemm.units", nil).Add(int64(units))
		// Scratch-reuse accounting is inherently worker-dependent (one
		// buffer grows per worker, so more workers means more
		// first-touch allocations) — it lives in the runtime section of
		// the snapshot, outside the deterministic byte-identity
		// guarantee.
		allocC = metrics.RC("nn.gemm.scratch_allocs", nil)
		reuseC = metrics.RC("nn.gemm.scratch_reuse", nil)
	}
	parallel.For(units, func(w, u int) {
		n, g := u/c.Groups, u%c.Groups
		sc := &scratch[w]
		hadCol := cap(sc.col)
		cols, rows, k := Im2ColInto(c, in, n, g, sc.col)
		sc.col = cols
		if allocC != nil {
			if cap(sc.col) != hadCol {
				allocC.Add(1)
			} else {
				reuseC.Add(1)
			}
		}
		if cap(sc.res) < rows*outCg {
			sc.res = make([]float32, rows*outCg)
		}
		res := sc.res[:rows*outCg]
		wBase := g * outCg * ksz
		// Seed every dot product with its bias: MatMul accumulates.
		bias := c.Bias[g*outCg : (g+1)*outCg]
		for r := 0; r < rows; r++ {
			copy(res[r*outCg:], bias)
		}
		MatMul(cols, rows, k, wd[wBase:wBase+outCg*ksz], outCg, res)
		for kc := 0; kc < outCg; kc++ {
			oc := g*outCg + kc
			dst := outd[(n*os.C+oc)*os.H*os.W:]
			for r := 0; r < rows; r++ {
				v := res[r*outCg+kc]
				if relu && v < 0 {
					v = 0
				}
				dst[r] = v
			}
		}
	})
	return out
}
