package snapea

// Op is the reference implementation of the paper's Eq. (1): the number
// of MAC operations SnaPEA performs for one convolution window, given
// the window's input values gathered in the kernel's reordered execution
// order. It returns the op count and the window's post-ReLU output.
//
//	Op = N                    if PartialSum_N ≤ Th
//	Op = Idx_w⁻               if PartialSum_N > Th and a negative partial
//	                          sum is observed among the negative weights
//	Op = Cin × Dk × Dk        otherwise
//
// The engine in engine.go is an optimized equivalent that gathers inputs
// on the fly; the property tests assert the two agree on random windows.
func (rk *ReorderedKernel) Op(x []float32, bias float32) (ops int, out float32) {
	if len(x) != len(rk.Weights) {
		panic("snapea: Op input length mismatch")
	}
	acc := rk.prefixSum(x, bias)
	if rk.NumSpec > 0 && acc <= rk.Th {
		return rk.NumSpec, 0
	}
	return rk.opPastPrefix(x, acc)
}

// prefixSum is the partial sum Op compares against Th: the bias plus the
// NumSpec speculation-prefix products, in execution order.
func (rk *ReorderedKernel) prefixSum(x []float32, bias float32) float32 {
	acc := bias
	for i := 0; i < rk.NumSpec; i++ {
		acc += rk.Weights[i] * x[i]
	}
	return acc
}

// opPastPrefix is Op once the prefix did not speculate: it continues
// from the prefix sum acc through the positive and negative regions. It
// does not depend on Th.
func (rk *ReorderedKernel) opPastPrefix(x []float32, acc float32) (ops int, out float32) {
	i := rk.NumSpec
	for ; i < rk.PosEnd; i++ {
		acc += rk.Weights[i] * x[i]
	}
	for ; i < len(rk.Weights); i++ {
		acc += rk.Weights[i] * x[i]
		if acc < 0 {
			return i + 1, 0
		}
	}
	if acc < 0 {
		return i, 0
	}
	return i, acc
}

// Gather arranges a window's input values (in original flattened kernel
// order) into the kernel's reordered execution order, for use with Op.
func (rk *ReorderedKernel) Gather(orig []float32) []float32 {
	out := make([]float32, len(rk.Index))
	for i, idx := range rk.Index {
		out[i] = orig[idx]
	}
	return out
}
