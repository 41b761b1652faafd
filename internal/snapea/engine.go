package snapea

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"snapea/internal/faults"
	"snapea/internal/metrics"
	"snapea/internal/nn"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// RunOpts selects what the engine records beyond the layer output.
type RunOpts struct {
	// CollectWindows stores the per-window MAC count (Eq. 1's Op value)
	// in the trace, which the cycle-level simulator consumes.
	CollectWindows bool
	// CollectPrediction additionally computes each window's true
	// convolution sign to account true/false negatives (Table V). This
	// costs the full dense MAC count for speculated windows.
	CollectPrediction bool
}

// LayerTrace aggregates what happened while executing one convolution
// layer on one input.
type LayerTrace struct {
	Node       string
	KernelSize int
	Batch      int
	OutC       int
	OutH, OutW int
	// Ops is the per-window MAC count in (n, k, oy, ox) order when
	// RunOpts.CollectWindows is set; nil otherwise.
	Ops []int32
	// TotalOps is the MACs actually executed; DenseOps is what an
	// unaltered convolution would execute (windows × kernel size).
	TotalOps int64
	DenseOps int64
	Windows  int64
	// SpecZero / SignZero count windows terminated early by the
	// predictive threshold check and by the exact sign check.
	SpecZero int64
	SignZero int64
	// Prediction accounting (RunOpts.CollectPrediction): TruthNeg is
	// the number of windows whose true convolution output is negative;
	// SpecTN / SpecFN split the speculated windows by whether the truth
	// was negative.
	TruthNeg int64
	SpecTN   int64
	SpecFN   int64
	// InputElems / WeightElems size the layer's memory traffic for the
	// cycle-level simulator (per whole trace and per layer).
	InputElems  int64
	WeightElems int64
}

// Reduction returns 1 - TotalOps/DenseOps, the fraction of MACs removed.
func (t *LayerTrace) Reduction() float64 {
	if t.DenseOps == 0 {
		return 0
	}
	return 1 - float64(t.TotalOps)/float64(t.DenseOps)
}

// compiledKernel is a ReorderedKernel specialized to a layer geometry:
// each position carries its offset in the input plane (in-place strips)
// and its row in the patch matrix (packed strips). The scalar and
// fixed-point padded-window paths derive a tap's (ci, ky, kx) from the
// reorder index (tapCoords).
type compiledKernel struct {
	w     []float32
	index []int32 // position in the original flattened kernel
	// offs[i] is tap i's offset from a window's origin in the input plane;
	// poffs[i] is Index[i]·lanes, the start of its row in a patch matrix
	// (nil when the plan packs nothing). Native ints, precomputed at
	// compile time so the hot loops never pay a conversion per MAC.
	offs, poffs []int
	numSpec     int
	posEnd      int
	th          float32
	bias        float32
	cBase       int32 // first input channel of this kernel's group
	// stuck marks a kernel whose compute lane is dead (fault injection):
	// every window outputs zero and executes no MACs.
	stuck bool
	// negMono marks a kernel whose suffix may stream in blocks: at least
	// suffixBlock weights, every one finite and ≤ 0 after fault injection.
	negMono bool
}

// tapCoords returns reordered tap i's channel (within the kernel's
// group) and kernel row and column.
func (p *LayerPlan) tapCoords(ck *compiledKernel, i int) (ci, ky, kx int) {
	kw, khw := p.Conv.KW, p.Conv.KH*p.Conv.KW
	ci, rem := int(ck.index[i])/khw, int(ck.index[i])%khw
	return ci, rem / kw, rem % kw
}

// LayerPlan is a convolution layer compiled for SnaPEA execution at a
// fixed input geometry.
type LayerPlan struct {
	Node     string
	Conv     *nn.Conv2D
	Params   LayerParams
	NegOrder NegOrder

	inShape tensor.Shape // single-image input shape (N ignored)
	outC    int
	outH    int
	outW    int
	kernels []compiledKernel
	// strip is the compile-time decomposition of the output geometry into
	// in-place strips and packed windows, and the owner of the run scratch
	// (engine_strip.go). Shared with plans recompiled from this one.
	strip *stripPlan
	// mode labels this plan's metrics: "predictive" when any kernel
	// speculates, "exact" otherwise. Fixed at compile time.
	mode string
	// mono: some kernel is negMono, so a Run's input is worth scanning.
	mono bool

	// faults is the optional injector corrupting this plan's activation
	// outputs at run time; nil (the common case) costs one pointer test
	// per Run. Weight/parameter faults are materialized at compile time.
	faults *faults.Injector
	// runSeq numbers this plan's Run invocations so each execution draws
	// activation faults from its own deterministic site.
	runSeq atomic.Int64
}

// NewLayerPlan reorders and compiles every kernel of conv for inputs of
// the given shape. params may be nil (all kernels exact) or must have
// one entry per output channel.
func NewLayerPlan(node string, conv *nn.Conv2D, inShape tensor.Shape, params LayerParams, negOrder NegOrder) *LayerPlan {
	return NewLayerPlanFaulty(node, conv, inShape, params, negOrder, nil)
}

// NewLayerPlanFaulty compiles a layer plan with fault injection: the
// injector perturbs the speculation parameters (Th, N) before
// reordering — modeling parameter-SRAM corruption — then flips bits in
// the compiled weight buffer (the accelerator's weight SRAM holds the
// *reordered* weights, so flips land after reordering and can break the
// positive/negative monotonicity the early-termination proof relies on,
// which is exactly the failure mode the fault sweep measures) and marks
// stuck-at-zero kernels. A nil injector compiles a clean plan.
func NewLayerPlanFaulty(node string, conv *nn.Conv2D, inShape tensor.Shape, params LayerParams, negOrder NegOrder, inj *faults.Injector) *LayerPlan {
	return compileLayer(node, conv, inShape, nil, params, negOrder, inj)
}

// recompile compiles the plan's layer again with other parameters,
// reusing its geometry: the strip plan depends on the shape only, so the
// Algorithm-1 passes, which recompile a layer about a hundred times per
// tune, neither rebuild it nor reallocate the scratch it retains.
func (p *LayerPlan) recompile(params LayerParams, negOrder NegOrder) *LayerPlan {
	return compileLayer(p.Node, p.Conv, p.inShape, p.strip, params, negOrder, nil)
}

// compileLayer builds a plan on the given strip plan, or on a fresh one
// when sp is nil.
func compileLayer(node string, conv *nn.Conv2D, inShape tensor.Shape, sp *stripPlan, params LayerParams, negOrder NegOrder, inj *faults.Injector) *LayerPlan {
	if params == nil {
		params = AllExact(conv.OutC)
	}
	if len(params) != conv.OutC {
		panic(fmt.Sprintf("snapea: %s: %d params for %d kernels", node, len(params), conv.OutC))
	}
	if inj != nil {
		perturbed := append(LayerParams(nil), params...)
		for k := range perturbed {
			if perturbed[k].IsExact() {
				continue
			}
			perturbed[k].Th = inj.JitterTh(node, k, perturbed[k].Th)
			perturbed[k].N = inj.JitterN(node, k, perturbed[k].N)
		}
		params = perturbed
	}
	os := conv.OutShape([]tensor.Shape{{N: 1, C: inShape.C, H: inShape.H, W: inShape.W}})
	if sp == nil {
		sp = planStrips(conv, inShape, os.H, os.W)
	}
	p := &LayerPlan{
		Node: node, Conv: conv, Params: params, NegOrder: negOrder,
		inShape: inShape, outC: conv.OutC, outH: os.H, outW: os.W,
		kernels: make([]compiledKernel, conv.OutC),
		strip:   sp,
		mode:    "exact",
	}
	for _, kp := range params {
		if !kp.IsExact() {
			p.mode = "predictive"
			break
		}
	}
	inCg := conv.InC / conv.Groups
	outCg := conv.OutC / conv.Groups
	plane := inShape.H * inShape.W
	khw := conv.KH * conv.KW
	for k := 0; k < conv.OutC; k++ {
		rk := Reorder(conv.Kernel(k), params[k], negOrder)
		nw := len(rk.Weights)
		ck := compiledKernel{
			w:       rk.Weights,
			index:   rk.Index,
			offs:    make([]int, nw),
			numSpec: rk.NumSpec,
			posEnd:  rk.PosEnd,
			th:      rk.Th,
			bias:    conv.Bias[k],
			cBase:   int32((k / outCg) * inCg),
		}
		if sp.packed > 0 {
			ck.poffs = make([]int, nw)
		}
		for i, orig := range rk.Index {
			ci, rem := int(orig)/khw, int(orig)%khw
			ck.offs[i] = ci*plane + rem/conv.KW*inShape.W + rem%conv.KW
			if ck.poffs != nil {
				ck.poffs[i] = int(orig) * sp.packed
			}
		}
		if inj != nil {
			inj.FlipWeightBits(fmt.Sprintf("%s/k%d", node, k), ck.w)
		}
		ck.negMono = nw-ck.posEnd >= suffixBlock
		for _, v := range ck.w[ck.posEnd:] {
			if !(v <= 0 && v >= -math.MaxFloat32) {
				ck.negMono = false
			}
		}
		p.mono = p.mono || ck.negMono
		p.kernels[k] = ck
	}
	if inj != nil {
		for _, k := range inj.StuckKernels(node, conv.OutC) {
			p.kernels[k].stuck = true
		}
		p.faults = inj
	}
	return p
}

// OutShape returns the output shape for a batch of the given size.
func (p *LayerPlan) OutShape(batch int) tensor.Shape {
	return tensor.Shape{N: batch, C: p.outC, H: p.outH, W: p.outW}
}

// newRun checks the input against the compiled geometry and allocates
// the zeroed output and the trace header — what Run and the two serial
// executors (runReference, RunFixed) all start from.
func (p *LayerPlan) newRun(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	s := in.Shape()
	if s.C != p.inShape.C || s.H != p.inShape.H || s.W != p.inShape.W {
		panic(fmt.Sprintf("snapea: %s compiled for %v, got %v", p.Node, p.inShape, s))
	}
	tr := &LayerTrace{
		Node:        p.Node,
		KernelSize:  p.Conv.KernelSize(),
		Batch:       s.N,
		OutC:        p.outC,
		OutH:        p.outH,
		OutW:        p.outW,
		InputElems:  int64(s.N) * int64(s.C*s.H*s.W),
		WeightElems: int64(p.outC) * int64(p.Conv.KernelSize()),
	}
	tr.Windows = int64(s.N) * int64(p.outC*p.outH*p.outW)
	tr.DenseOps = tr.Windows * int64(tr.KernelSize)
	if opts.CollectWindows {
		tr.Ops = make([]int32, tr.Windows)
	}
	return tensor.New(p.OutShape(s.N)), tr
}

// windowSteps prices a window's fixed cost (accumulator set-up, worklist,
// drain hand-offs, store) in dense MACs: over GoogLeNet's and SqueezeNet's
// layers a Run costs ~25 ns a window plus ~0.66 ns a dense MAC, so a layer
// of 4-tap kernels is several times dearer than its MAC count says.
const windowSteps = 38

// Run executes the layer with early activation and returns the output
// (identical to conv+ReLU for exact kernels) and the trace.
func (p *LayerPlan) Run(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	out, tr, issued := p.run(in, opts, true)
	if metrics.Enabled() {
		p.recordMetrics(tr, issued)
	}
	return out, tr
}

// runUncounted is Run for a caller that reads the output alone: the
// same output, bit for bit, without the exact exit tap of each window
// that the blocked suffix retires — the replays that find it are Eq. (1)
// bookkeeping, and the output is 0 either way. It computes no trace and
// records no metrics; Network decides when nothing reads them.
func (p *LayerPlan) runUncounted(in *tensor.Tensor) *tensor.Tensor {
	out, _, _ := p.run(in, RunOpts{}, false)
	return out
}

// run is Run's body. count says whether the trace and the issued-MAC
// total it returns are wanted; without it they are incomplete.
func (p *LayerPlan) run(in *tensor.Tensor, opts RunOpts, count bool) (*tensor.Tensor, *LayerTrace, int64) {
	out, tr := p.newRun(in, opts)
	s := in.Shape()

	// One work item per (kernel, image) pair, priced from the geometry: a
	// layer under parallel.InlineSteps runs on the caller with worker 0's
	// shard alone — waking a helper costs more than a short layer does.
	items, steps := p.outC*s.N, p.outH*p.outW*(tr.KernelSize+windowSteps)

	// Windows that cannot stream in place are gathered first, one patch
	// matrix per image shared by every kernel. The copy is 1/OutC of the
	// packed windows' dense work and runs inline: fanning it out measured
	// no faster than waking a second worker costs.
	sp := p.strip
	rs := sp.acquire(parallel.WorkersCost(items, steps), s.N)
	if sp.packed > 0 {
		img := s.C * s.H * s.W
		for n := 0; n < s.N; n++ {
			sp.gather(rs.patch[n], in.Data()[n*img:(n+1)*img], s.C)
		}
	}

	// The items write disjoint output planes (and index-keyed Ops slots),
	// so they fan out as they are — finer than whole kernels, which keeps
	// workers busy when early termination makes kernels unevenly priced.
	// Each worker accumulates into a private LayerTrace shard, merged
	// afterwards in worker order; every shard field is an integer counter,
	// so the totals are identical for any worker count and any dynamic
	// assignment of items to workers.
	parallel.ForCost(items, steps, layerRun{p, in, out, rs, tr, opts, p.mono && nonNegFinite(in.Data()), count}, layerRun.kernel)
	var issued int64
	for i := range rs.stats {
		st := &rs.stats[i]
		issued += st.issued
		tr.TotalOps += st.TotalOps
		tr.SpecZero += st.SpecZero
		tr.SignZero += st.SignZero
		tr.TruthNeg += st.TruthNeg
		tr.SpecTN += st.SpecTN
		tr.SpecFN += st.SpecFN
	}
	sp.release(rs)
	if p.faults != nil {
		seq := p.runSeq.Add(1) - 1
		p.faults.CorruptActivations(fmt.Sprintf("%s#%d", p.Node, seq), out.Data())
	}
	return out, tr, issued
}

// recordMetrics reports one completed layer execution to the metrics
// registry. It runs after the per-worker trace shards were merged, so
// every value it adds is the same integer for any worker count — which
// keeps deterministic metric snapshots byte-identical across -workers
// (see internal/metrics). Granularity is one counter batch per layer
// run, never per window, so the enabled path stays a rounding error
// next to the layer's own MACs; the disabled path costs one atomic
// load in Run. issued is the MACs the run put through the FPU — ≥
// tr.TotalOps, Eq. (1)'s count: the dense phases sweep retired lanes too,
// and a suffix block streams past a lane's exit before the replay finds it.
func (p *LayerPlan) recordMetrics(tr *LayerTrace, issued int64) {
	lbl := metrics.Labels{"layer": p.Node, "mode": p.mode}
	metrics.C("engine.runs", lbl).Add(1)
	metrics.C("engine.windows", lbl).Add(tr.Windows)
	metrics.C("engine.macs_executed", lbl).Add(tr.TotalOps)
	metrics.C("engine.macs_issued", lbl).Add(issued)
	metrics.C("engine.macs_skipped", lbl).Add(tr.DenseOps - tr.TotalOps)
	metrics.C("engine.exact_early_exits", lbl).Add(tr.SignZero)
	metrics.C("engine.speculative_zeros", lbl).Add(tr.SpecZero)
	metrics.C("engine.mispredictions", lbl).Add(tr.SpecFN)
	if tr.Ops != nil {
		// Bucket-count locally and publish one atomic add per bucket per
		// run instead of one per window: a layer run observes millions of
		// windows, and per-window atomics made metrics-enabled traced runs
		// measurably slower than the engine itself.
		bounds := windowOpsBounds(tr.KernelSize)
		var bc [8]int64 // ≤7 bounds + overflow
		counts := bc[:len(bounds)+1]
		var sum int64
		for _, op := range tr.Ops {
			v := int64(op)
			sum += v
			b := 0
			for b < len(bounds) && v > bounds[b] {
				b++
			}
			counts[b]++
		}
		if err := metrics.H("engine.window_ops", lbl, bounds).ObserveBatch(counts, sum); err != nil {
			// A histogram-shape bug costs this one metric, not the run;
			// the drop is counted so the mismatch stays visible.
			metrics.RC("metrics.observe_batch_drops", nil).Add(1)
		}
	}
}

// opsBoundsCache memoizes windowOpsBounds per kernel size: every Run of
// every plan with the same kernel size shares one immutable bounds
// slice instead of reallocating it per layer execution.
var opsBoundsCache sync.Map // int → []int64

// windowOpsBounds buckets per-window MAC counts into eighths of the
// kernel size (the overflow bucket holds full-length windows). The
// returned slice is shared and must not be modified.
func windowOpsBounds(kernelSize int) []int64 {
	if v, ok := opsBoundsCache.Load(kernelSize); ok {
		return v.([]int64)
	}
	var bounds []int64
	for i := 1; i < 8; i++ {
		b := int64(kernelSize) * int64(i) / 8
		if len(bounds) == 0 || b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	v, _ := opsBoundsCache.LoadOrStore(kernelSize, bounds)
	return v.([]int64)
}

// RunChecked is Run behind the validation the hardened pipeline needs:
// shape mismatches become errors instead of panics, and non-finite
// inputs are rejected. Rejecting (rather than executing) non-finite
// inputs is deliberate: sign-based early termination returns zero the
// moment a partial sum goes negative, so a NaN or ±Inf contribution
// later in the window could have changed the full IEEE sum — the exact
// mode would silently diverge from the dense reference. See the
// engine's NaN-guard tests.
func (p *LayerPlan) RunChecked(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace, error) {
	s := in.Shape()
	if s.C != p.inShape.C || s.H != p.inShape.H || s.W != p.inShape.W {
		return nil, nil, fmt.Errorf("snapea: %s compiled for %v, got %v", p.Node, p.inShape, s)
	}
	if i := FirstNonFinite(in.Data()); i >= 0 {
		return nil, nil, fmt.Errorf("snapea: %s: non-finite input at element %d (%v): early termination is undefined on non-finite partial sums; sanitize the input or use the dense nn path", p.Node, i, in.Data()[i])
	}
	out, tr := p.Run(in, opts)
	return out, tr, nil
}

// finiteScans counts FirstNonFinite invocations. It exists so tests and
// benchmarks can prove validation runs once per request at the
// network/serve boundary instead of once per layer (see
// Network.ForwardChecked); the counter is a single atomic add per scan,
// not per element.
var finiteScans atomic.Int64

// FiniteScans returns the process-wide number of non-finite input scans
// performed so far.
func FiniteScans() int64 { return finiteScans.Load() }

// FirstNonFinite returns the index of the first NaN or ±Inf, or -1. It
// is the single shared implementation of the engine's input validation:
// callers validate once at the boundary (the serving layer on decode,
// Network.ForwardChecked on entry) and inner layers then trust
// already-sanitized activations — a finite input through finite weights
// yields finite post-ReLU outputs, so re-scanning per layer only burns
// memory bandwidth.
func FirstNonFinite(d []float32) int {
	finiteScans.Add(1)
	for i, v := range d {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return i
		}
	}
	return -1
}

// nonNegFinite reports whether every element is finite and ≥ 0 (±0
// included): the per-Run premise of the blocked suffix, checked in one
// pass that costs at most 1/(OutC·KH·KW/stride²) of the layer's MACs.
func nonNegFinite(d []float32) bool {
	for _, v := range d {
		if !(v >= 0 && v <= math.MaxFloat32) {
			return false
		}
	}
	return true
}

// layerRun is one Run's operands.
type layerRun struct {
	p       *LayerPlan
	in, out *tensor.Tensor
	rs      *runState
	tr      *LayerTrace
	opts    RunOpts
	nonNeg  bool // p.mono and the input passed nonNegFinite
	count   bool // replay suffix exits to their exact tap (Run, not runUncounted)
}

// kernel computes work item i — all windows of output channel i/N for
// batch element i%N — on the given worker's shard of rs: the in-place
// strips straight from the input plane, then the packed windows from the
// image's patch matrix in chunks of maxStripLanes — both through
// runStrip, which accumulates each window in the scalar reference's tap
// order.
func (r layerRun) kernel(worker, i int) {
	p, s := r.p, r.in.Shape()
	k, n := i/s.N, i%s.N
	ck := &p.kernels[k]
	if ck.stuck {
		// Dead lane: outputs stay zero (out is zero-initialized) and no
		// MACs execute.
		return
	}
	ind := r.in.Data()
	outd := r.out.Data()
	inBase := (n*s.C + int(ck.cBase)) * s.H * s.W
	outBase := (n*p.outC + k) * p.outH * p.outW
	sp := p.strip
	st, sc := &r.rs.stats[worker], &r.rs.lanes[worker]
	mono := r.nonNeg && ck.negMono
	for _, ls := range sp.strips {
		p.runStrip(ck, ck.offs, ind, outd, inBase+ls.in, ls.n, outBase+ls.out, laneIota[:], mono, r.count, r.tr, st, sc, r.opts)
	}
	if sp.packed == 0 {
		return
	}
	patch := r.rs.patch[n]
	groupBase := int(ck.cBase) * p.Conv.KH * p.Conv.KW * sp.packed
	for c := 0; c < sp.packed; c += maxStripLanes {
		lanes := min(maxStripLanes, sp.packed-c)
		p.runStrip(ck, ck.poffs, patch, outd, groupBase+c, lanes, outBase, sp.scatter[c:], mono, r.count, r.tr, st, sc, r.opts)
	}
}
