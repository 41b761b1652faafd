// Package snapea implements the paper's contribution: predictive early
// activation for ReLU-fused convolutions. It contains the offline weight
// reordering (Section II-A), the runtime early-termination convolution
// engine (Sections II-B, V), the Op cost function of Eq. (1), and the
// greedy constrained optimizer of Algorithm 1 that picks the speculation
// parameters (Th, N) per kernel under an accuracy-loss budget ε.
package snapea

import "sort"

// KernelParam is one kernel's speculation parameter pair (Th, N) from the
// paper: after the N speculation-prefix MACs, a partial sum ≤ Th predicts
// a negative output. N == 0 selects the exact mode for the kernel (no
// speculation; only the always-correct sign check).
type KernelParam struct {
	Th float32
	N  int
}

// Exact is the parameter choice that disables speculation for a kernel.
var Exact = KernelParam{Th: 0, N: 0}

// IsExact reports whether the parameter disables speculation.
func (p KernelParam) IsExact() bool { return p.N == 0 }

// LayerParams holds one KernelParam per output channel of a layer.
type LayerParams []KernelParam

// AllExact returns layer parameters that put every kernel in exact mode.
func AllExact(outC int) LayerParams { return make(LayerParams, outC) }

// NegOrder selects how the negative-weight suffix is ordered. The paper
// only requires positives-then-negatives; ordering negatives by
// descending magnitude drives the partial sum below zero sooner, which
// the ablation bench quantifies.
type NegOrder int

const (
	// NegByMagnitude puts the most negative weights first (default).
	NegByMagnitude NegOrder = iota
	// NegOriginal keeps the negatives in their original kernel order.
	NegOriginal
)

// ReorderedKernel is one output channel's weights in SnaPEA execution
// order together with the index buffer that maps each position back to
// the original kernel coordinate (the hardware uses this to fetch the
// matching input; Section V, "Weight and index buffers").
type ReorderedKernel struct {
	Weights []float32
	Index   []int32 // position in the original flattened kernel
	// NumSpec speculation-prefix weights come first; then positives;
	// then negatives starting at PosEnd.
	NumSpec int
	PosEnd  int
	Th      float32
}

// Reorder builds the execution order for one kernel. w is the flattened
// original kernel (channel-major); it is not modified.
//
// Exact mode (p.N == 0): positive weights in original order, then
// negative weights per negOrder.
//
// Predictive mode (p.N > 0): the weights are sorted by ascending
// magnitude and split into N near-equal groups; the largest-magnitude
// member of each group forms the speculation prefix (Section IV-A — this
// spreads the prefix across the whole magnitude spectrum instead of
// taking the N largest, which the paper shows destroys accuracy). The
// remaining weights follow in sign-based order.
//
// Exactly-zero weights (statically pruned) are elided: the index buffer
// already decouples execution order from storage order, so a zero MAC —
// which can never change the sum or the sign trajectory — is simply
// never issued. This is how static pruning and SnaPEA compose.
func Reorder(w []float32, p KernelParam, negOrder NegOrder) ReorderedKernel {
	return reorderInto(w, p, negOrder, make([]float32, len(w)), make([]int32, len(w)), new(reorderScratch))
}

// reorderScratch is reorderInto's working storage, reused from call to
// call: the index lists and the sort over them.
type reorderScratch struct {
	inSpec                  []bool
	nonzero, spec, pos, neg []int32
	order                   kernelOrder
}

// kernelOrder sorts kernel positions by ascending w, or by ascending |w|
// when abs is set. sort.Sort runs the same pdqsort as sort.Slice, so a
// tie ends where sort.Slice put it.
type kernelOrder struct {
	idx []int32
	w   []float32
	abs bool
}

func (s *kernelOrder) Len() int      { return len(s.idx) }
func (s *kernelOrder) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *kernelOrder) Less(a, b int) bool {
	x, y := s.w[s.idx[a]], s.w[s.idx[b]]
	if s.abs {
		x, y = abs32(x), abs32(y)
	}
	return x < y
}

// reorderInto is Reorder writing the kernel's weights and index buffer
// into dstW and dstIdx, each at least len(w) long, and working in s. The
// returned kernel's Weights and Index are their prefixes, capped at
// their length.
func reorderInto(w []float32, p KernelParam, negOrder NegOrder, dstW []float32, dstIdx []int32, s *reorderScratch) ReorderedKernel {
	n := len(w)
	if n == 0 {
		panic("snapea: empty kernel")
	}
	if cap(s.inSpec) < n {
		b := make([]int32, 4*n)
		*s = reorderScratch{inSpec: make([]bool, n), nonzero: b[:0:n], spec: b[n : n : 2*n], pos: b[2*n : 2*n : 3*n], neg: b[3*n : 3*n]}
	}
	inSpec := s.inSpec[:n]
	clear(inSpec)
	nonzero, spec := s.nonzero[:0], s.spec[:0]
	for i := 0; i < n; i++ {
		if w[i] != 0 {
			nonzero = append(nonzero, int32(i))
		}
	}
	if p.N > 0 && len(nonzero) > 0 {
		groups := min(p.N, len(nonzero))
		// The sort runs in pos's storage, which is free until the split.
		byMag := append(s.pos[:0], nonzero...)
		s.order = kernelOrder{idx: byMag, w: w, abs: true}
		sort.Sort(&s.order)
		// Split into `groups` near-equal contiguous chunks and take the
		// last (largest-magnitude) element of each.
		for g := 0; g < groups; g++ {
			idx := byMag[(g+1)*len(byMag)/groups-1]
			spec = append(spec, idx)
			inSpec[idx] = true
		}
	}

	pos, neg := s.pos[:0], s.neg[:0]
	for _, i := range nonzero {
		if inSpec[i] {
			continue
		}
		if w[i] > 0 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if negOrder == NegByMagnitude {
		s.order = kernelOrder{idx: neg, w: w}
		sort.Sort(&s.order)
	}

	nw := 0
	for _, idxs := range [3][]int32{spec, pos, neg} {
		for _, i := range idxs {
			dstW[nw], dstIdx[nw] = w[i], i
			nw++
		}
	}
	return ReorderedKernel{
		Weights: dstW[:nw:nw],
		Index:   dstIdx[:nw:nw],
		NumSpec: len(spec),
		PosEnd:  len(spec) + len(pos),
		Th:      p.Th,
	}
}

// ReorderNaivePrefix builds the speculation prefix the paper argues
// *against* (Section IV-A): the N largest-magnitude weights, ignoring
// the input's contribution. It exists for the ablation bench that
// reproduces the paper's claim that naive selection drastically hurts
// classification accuracy relative to group-representative selection.
func ReorderNaivePrefix(w []float32, p KernelParam, negOrder NegOrder) ReorderedKernel {
	n := len(w)
	if p.N <= 0 {
		return Reorder(w, p, negOrder)
	}
	byMag := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if w[i] != 0 {
			byMag = append(byMag, int32(i))
		}
	}
	sort.Slice(byMag, func(a, b int) bool {
		return abs32(w[byMag[a]]) > abs32(w[byMag[b]])
	})
	groups := p.N
	if groups > len(byMag) {
		groups = len(byMag)
	}
	spec := byMag[:groups]
	pos := make([]int32, 0, n)
	neg := make([]int32, 0, n)
	for _, i := range byMag[groups:] {
		if w[i] > 0 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if negOrder == NegByMagnitude {
		sort.Slice(neg, func(a, b int) bool { return w[neg[a]] < w[neg[b]] })
	}
	rk := ReorderedKernel{
		Weights: make([]float32, 0, n),
		Index:   make([]int32, 0, n),
		NumSpec: len(spec),
		Th:      p.Th,
	}
	appendIdx := func(idxs []int32) {
		for _, i := range idxs {
			rk.Weights = append(rk.Weights, w[i])
			rk.Index = append(rk.Index, i)
		}
	}
	appendIdx(spec)
	appendIdx(pos)
	rk.PosEnd = len(rk.Weights)
	appendIdx(neg)
	return rk
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
