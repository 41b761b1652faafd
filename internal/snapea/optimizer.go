package snapea

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"snapea/internal/metrics"
	"snapea/internal/nn"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
	"snapea/internal/train"
)

// OptConfig parameterizes Algorithm 1.
type OptConfig struct {
	// Epsilon is the acceptable classification-accuracy loss ε.
	Epsilon float64
	// NCandidates are the group counts tried per kernel (the paper's
	// "number of groups" N). Zero-length means {4, 8, 16}.
	NCandidates []int
	// ThQuantiles are the quantiles of each kernel's speculation-prefix
	// partial-sum distribution used as threshold candidates.
	// Zero-length means {0.2, 0.35, 0.5, 0.65}.
	ThQuantiles []float64
	// MaxWindows caps the number of convolution windows sampled per
	// kernel during profiling. Zero means 64.
	MaxWindows int
	// T is the number of per-layer configurations the local pass
	// examines (the paper's T). Zero means 4.
	T int
	// FNBudgetScale maps ε to the kernel-level error budget used during
	// profiling: a candidate is acceptable when the *mass* of positive
	// convolution outputs it would squash to zero is at most
	// FNBudgetScale × ε of the kernel's total positive output mass.
	// Budgeting mass rather than count makes the admitted errors land
	// on small positive values — the property the paper reports ("more
	// than 86% of the error occurs on the small positive values") and
	// the reason misspeculation barely moves classification. This is
	// the kernel-granularity substitute for the paper's per-kernel
	// full-network Simulate (see DESIGN.md). Zero means 3.
	FNBudgetScale float64
	// SoftScale maps ε to the surrogate budget (SoftLoss × ε·SoftScale):
	// a mean correct-class probability drop is mostly margin erosion
	// that never crosses the argmax boundary, so a budget of ε on it is
	// far stricter than ε of 0/1 accuracy. Zero means 3.
	SoftScale float64
	// SoftLoss makes the local and global passes budget the mean drop
	// of the correct class's softmax probability instead of the 0/1
	// accuracy. With an optimization set of n images, 0/1 accuracy
	// quantizes to 1/n steps — for small n that is far coarser than ε,
	// and the greedy search cannot see gradations the paper's
	// thousands-of-images D resolves. The reported accuracies remain
	// hard 0/1.
	SoftLoss bool
	NegOrder NegOrder
}

func (c OptConfig) normalize() OptConfig {
	if len(c.NCandidates) == 0 {
		c.NCandidates = []int{4, 8, 16}
	}
	if len(c.ThQuantiles) == 0 {
		c.ThQuantiles = []float64{0.2, 0.35, 0.5, 0.65}
	}
	if c.MaxWindows == 0 {
		c.MaxWindows = 64
	}
	if c.T == 0 {
		c.T = 4
	}
	if c.FNBudgetScale == 0 {
		c.FNBudgetScale = 3
	}
	if c.SoftScale == 0 {
		c.SoftScale = 3
	}
	return c
}

// Candidate is one profiled (Th, N) choice for a kernel, with its
// estimated mean ops per window and false-negative rate. It serializes
// into optimizer checkpoints.
type Candidate struct {
	Param KernelParam `json:"param"`
	Op    float64     `json:"op"`
	FN    float64     `json:"fn"`
}

// LayerChoice is one per-layer configuration the optimization stage
// weighs: a full set of kernel parameters plus its measured total layer
// ops on the optimization set and its isolated accuracy loss. It
// serializes into optimizer checkpoints.
type LayerChoice struct {
	Params LayerParams `json:"params"`
	Op     float64     `json:"op"`
	Err    float64     `json:"err"`
}

// Result is the output of Algorithm 1.
type Result struct {
	// Params holds the final speculation parameters per conv node.
	Params map[string]LayerParams
	// Predictive marks the layers whose final configuration speculates
	// (at least one kernel with N > 0) — Table IV's numerator.
	Predictive map[string]bool
	// BaseAcc / FinalAcc are the optimization-set accuracies of the
	// exact and final predictive networks.
	BaseAcc  float64
	FinalAcc float64
	// GlobalIters counts global-pass parameter adjustments.
	GlobalIters int
	// ParamK is the profiling stage's accepted candidates per node and
	// kernel (exposed for inspection and tests).
	ParamK map[string][][]Candidate
}

// Optimizer runs Algorithm 1 against a calibrated model with a trained
// head. The images are the paper's "optimization dataset" D.
type Optimizer struct {
	net    *Network
	head   *nn.FC
	images []*tensor.Tensor
	labels []int
	cfg    OptConfig

	caches    []map[string]*tensor.Tensor // exact-execution node values per image
	baseFeats [][]float32
	baseAcc   float64
	baseProb  []float64          // correct-class probability per image, exact execution
	temp      float64            // calibrated softmax temperature for the surrogate
	exactOps  map[string]float64 // per-layer exact-mode ops on D
	lastAcc   float64            // hard accuracy of the most recent evalFull
	log       func(string, ...any)

	// ckpt accumulates resumable state; saveCkpt (if set) persists it
	// after every completed unit of work.
	ckpt     *OptCheckpoint
	saveCkpt func(*OptCheckpoint) error
}

// NewOptimizer prepares an optimizer. head must already be trained.
func NewOptimizer(net *Network, head *nn.FC, images []*tensor.Tensor, labels []int, cfg OptConfig) *Optimizer {
	if len(images) == 0 || len(images) != len(labels) {
		panic("snapea: optimizer needs a non-empty labelled optimization set")
	}
	return &Optimizer{net: net, head: head, images: images, labels: labels, cfg: cfg.normalize()}
}

// SetLog installs a progress logger (Printf-style).
func (o *Optimizer) SetLog(f func(string, ...any)) { o.log = f }

// SetCheckpoint installs resumable-state handling: ck (may be a loaded
// checkpoint to resume from, or nil to start fresh) accumulates
// completed work, and save — called after every profiled or locally
// optimized layer — persists it. Save errors are logged, not fatal: a
// failing disk should not kill a multi-minute optimization. Because the
// optimizer is deterministic, resuming from a checkpoint yields results
// identical to an uninterrupted run.
func (o *Optimizer) SetCheckpoint(ck *OptCheckpoint, save func(*OptCheckpoint) error) {
	if ck == nil {
		ck = NewOptCheckpoint("", o.cfg.Epsilon)
	}
	if ck.Profiled == nil {
		ck.Profiled = make(map[string][][]Candidate)
	}
	if ck.Local == nil {
		ck.Local = make(map[string][]LayerChoice)
	}
	o.ckpt = ck
	o.saveCkpt = save
}

// checkpoint persists the accumulated checkpoint state, if configured.
func (o *Optimizer) checkpoint() {
	if o.ckpt == nil || o.saveCkpt == nil {
		return
	}
	if err := o.saveCkpt(o.ckpt); err != nil {
		o.logf("optimizer: checkpoint save failed: %v", err)
	}
}

func (o *Optimizer) logf(format string, args ...any) {
	if o.log != nil {
		o.log(format, args...)
	}
}

// progress emits one per-stage progress line with an ETA extrapolated
// from the completed layers. It goes to the configured logger when one
// is set, and to stderr when observability is on without a logger (the
// -metrics tools), so long tunes are never silent. ETA lines are purely
// informational — wall-clock never feeds back into the optimization, so
// determinism is untouched.
//
//snapea:runtime
func (o *Optimizer) progress(stage string, done, total int, start time.Time) {
	if done <= 0 || (o.log == nil && !metrics.Enabled()) {
		return
	}
	elapsed := time.Since(start)
	eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
	msg := fmt.Sprintf("optimizer: %s %d/%d layers, elapsed %s, eta %s",
		stage, done, total, elapsed.Round(time.Second), eta.Round(time.Second))
	if o.log != nil {
		o.log("%s", msg)
	} else {
		fmt.Fprintln(os.Stderr, msg)
	}
}

// progressClock reads the wall clock for the progress/ETA baseline. It
// exists so the optimization passes themselves contain no clock read:
// the timestamp flows only into progress lines, never into candidate
// search, checkpoint bytes or params output.
//
//snapea:runtime
func progressClock() time.Time {
	return time.Now()
}

// Run executes the profiling stage and both optimization passes, returns
// the chosen parameters, and leaves the optimizer's network compiled
// with them. It is RunCtx without cancellation.
func (o *Optimizer) Run() *Result {
	res, err := o.RunCtx(context.Background())
	if err != nil {
		// Background context never cancels; any error here is a
		// programming error (e.g. an incompatible checkpoint).
		panic(err)
	}
	return res
}

// RunCtx executes Algorithm 1 under a context: cancellation or deadline
// expiry stops the run between units of work and returns the context's
// error, with the checkpoint (if configured) already holding every
// completed unit, ready to resume.
func (o *Optimizer) RunCtx(ctx context.Context) (*Result, error) {
	if o.ckpt != nil {
		if err := o.ckpt.Compatible("", o.cfg.Epsilon); err != nil {
			return nil, err
		}
		for node := range o.ckpt.Profiled {
			if o.net.Plans[node] == nil {
				return nil, fmt.Errorf("snapea: checkpoint names layer %q absent from the network", node)
			}
		}
	}
	sp := metrics.StartSpan("tune/prepare")
	o.prepare()
	sp.End()
	if o.cfg.Epsilon <= 0 {
		// The paper defines the 0%-loss point as the pure exact mode
		// with the prediction mechanism disabled (Figure 11), not as
		// "speculate wherever the optimization set happens not to
		// notice" — so ε=0 short-circuits to all-exact parameters.
		res := &Result{
			Params:     make(map[string]LayerParams, len(o.net.PlanOrder)),
			Predictive: make(map[string]bool),
			BaseAcc:    o.baseAcc,
			FinalAcc:   o.baseAcc,
			ParamK:     make(map[string][][]Candidate),
		}
		for _, node := range o.net.PlanOrder {
			res.Params[node] = AllExact(o.net.Plans[node].Conv.OutC)
		}
		return res, nil
	}
	paramK, err := o.kernelProfilingPass(ctx)
	if err != nil {
		return nil, err
	}
	paramL, err := o.localOptimizationPass(ctx, paramK)
	if err != nil {
		return nil, err
	}
	res, err := o.globalOptimizationPass(ctx, paramL)
	if err != nil {
		return nil, err
	}
	res.ParamK = paramK
	res.BaseAcc = o.baseAcc
	return res, nil
}

// prepare caches exact-mode node values and the exact per-layer op
// totals for the optimization set. The per-image forward passes are
// independent, so they fan out across the worker pool; each image's
// cache and trace land in index-keyed slots and the per-layer op totals
// are then merged serially in image order, so the prepared state is
// identical for any worker count.
func (o *Optimizer) prepare() {
	// Reset every plan to exact.
	for _, name := range o.net.PlanOrder {
		o.setPlan(name, AllExact(o.net.Plans[name].Conv.OutC))
	}
	o.caches = make([]map[string]*tensor.Tensor, len(o.images))
	o.baseFeats = make([][]float32, len(o.images))
	o.exactOps = make(map[string]float64)
	traces := make([]*NetTrace, len(o.images))
	parallel.For(len(o.images), func(_, i int) {
		img := o.images[i]
		trace := NewNetTrace()
		vals := map[string]*tensor.Tensor{nn.InputName: img}
		o.net.Model.Graph.ForwardExec(img, func(name string, t *tensor.Tensor) {
			vals[name] = t
		}, o.net.exec(RunOpts{}, trace))
		o.caches[i] = vals
		feat := vals[o.net.Model.FeatureNode]
		cp := make([]float32, len(feat.Data()))
		copy(cp, feat.Data())
		o.baseFeats[i] = cp
		traces[i] = trace
	})
	for _, trace := range traces {
		for name, tr := range trace.Layers {
			o.exactOps[name] += float64(tr.TotalOps)
		}
	}
	o.baseAcc = train.Accuracy(o.head, o.baseFeats, o.labels)
	// Calibrate the surrogate's softmax temperature so the baseline
	// correct-class probability is unsaturated (~0.75 mean); otherwise
	// an overfit head reduces the smooth surrogate to 0/1 steps.
	o.temp = 1
	for iter := 0; iter < 30; iter++ {
		var mean float64
		for i, feat := range o.baseFeats {
			mean += train.ProbT(o.head, feat, o.labels[i], o.temp)
		}
		mean /= float64(len(o.baseFeats))
		if mean > 0.80 {
			o.temp *= 1.5
		} else if mean < 0.60 {
			o.temp /= 1.5
		} else {
			break
		}
	}
	o.baseProb = make([]float64, len(o.images))
	for i, feat := range o.baseFeats {
		o.baseProb[i] = train.ProbT(o.head, feat, o.labels[i], o.temp)
	}
	o.logf("optimizer: base accuracy %.3f on %d images (temp %.2f)", o.baseAcc, len(o.images), o.temp)
}

// setPlan recompiles one layer's plan with new parameters.
func (o *Optimizer) setPlan(node string, params LayerParams) {
	old := o.net.Plans[node]
	o.net.Plans[node] = old.recompile(params, o.cfg.NegOrder)
}

// kernelProfilingPass implements KERNELPROFILINGPASS: for every kernel it
// measures mean ops and false-negative rate over sampled windows for a
// grid of (th, n) values and keeps the candidates within the kernel-level
// budget, sorted by ascending op. The exact configuration is always the
// final fallback entry. Completed layers are checkpointed; layers already
// in the checkpoint are reused instead of recomputed.
//
// Kernels are profiled concurrently: each kernel's candidate search only
// reads the shared window matrix and writes its own kands slot, and each
// worker owns a private reorder scratch. The per-kernel arithmetic is
// untouched, so the candidate lists — and therefore the checkpoint bytes
// — are bit-identical for any worker count. Layers stay sequential,
// preserving the per-layer checkpoint granularity.
func (o *Optimizer) kernelProfilingPass(ctx context.Context) (map[string][][]Candidate, error) {
	sp := metrics.StartSpan("tune/profile")
	defer sp.End()
	start := progressClock()
	fnBudget := math.Min(0.5, o.cfg.FNBudgetScale*o.cfg.Epsilon)
	out := make(map[string][][]Candidate, len(o.net.PlanOrder))
	for li, node := range o.net.PlanOrder {
		if o.ckpt != nil {
			if kands, ok := o.ckpt.Profiled[node]; ok {
				out[node] = kands
				o.logf("optimizer: profiling %s restored from checkpoint", node)
				continue
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		conv := o.net.Plans[node].Conv
		windows := o.sampleWindows(node)
		wins := o.gatherWindows(node, windows)
		kands := make([][]Candidate, conv.OutC)
		outCg := conv.OutC / conv.Groups
		scratch := make([][]float32, parallel.Workers(conv.OutC))
		err := parallel.ForCtx(ctx, conv.OutC, func(w, k int) {
			if scratch[w] == nil {
				scratch[w] = make([]float32, conv.KernelSize())
			}
			kands[k] = o.profileKernel(node, k, wins[k/outCg], fnBudget, scratch[w])
		})
		if err != nil {
			return nil, err
		}
		out[node] = kands
		if o.ckpt != nil {
			o.ckpt.Profiled[node] = kands
			o.checkpoint()
		}
		if metrics.Enabled() {
			var accepted int64
			for _, list := range kands {
				accepted += int64(len(list))
			}
			metrics.C("opt.layers_profiled", nil).Add(1)
			metrics.C("opt.candidates", metrics.Labels{"layer": node}).Add(accepted)
		}
		o.logf("optimizer: profiled %s (%d kernels, %d windows)", node, conv.OutC, len(windows))
		o.progress("profiling", li+1, len(o.net.PlanOrder), start)
	}
	return out, nil
}

// profileKernel runs the (th, n) candidate grid for one kernel over the
// layer's sampled windows — wins, the kernel's group's window matrix
// from gatherWindows — and returns the accepted candidates sorted by
// ascending op, with the exact fallback appended. gath is scratch of
// kernel size.
func (o *Optimizer) profileKernel(node string, k int, wins []float32, fnBudget float64, gath []float32) []Candidate {
	conv := o.net.Plans[node].Conv
	ksz := conv.KernelSize()
	nWin := len(wins) / ksz
	w := conv.Kernel(k)
	bias := conv.Bias[k]
	// Exact baseline per window.
	rkE := Reorder(w, Exact, o.cfg.NegOrder)
	var exactOps float64
	fulls := make([]float64, nWin)
	for wi := range fulls {
		xbuf := wins[wi*ksz : (wi+1)*ksz]
		rkE.gatherInto(xbuf, gath)
		ops, _ := rkE.Op(gath, bias)
		exactOps += float64(ops)
		full := float64(bias)
		for i, x := range xbuf {
			full += float64(w[i]) * float64(x)
		}
		fulls[wi] = full
	}
	exactOps /= float64(nWin)
	var accepted []Candidate
	for _, n := range o.cfg.NCandidates {
		if n >= ksz {
			continue
		}
		rk := Reorder(w, KernelParam{N: n}, o.cfg.NegOrder)
		// Speculation-prefix sums per window → threshold grid.
		sums := make([]float64, nWin)
		for wi := range sums {
			xbuf := wins[wi*ksz : (wi+1)*ksz]
			s := float64(bias)
			for i := 0; i < rk.NumSpec; i++ {
				s += float64(rk.Weights[i]) * float64(xbuf[rk.Index[i]])
			}
			sums[wi] = s
		}
		sorted := append([]float64(nil), sums...)
		sort.Float64s(sorted)
		for _, q := range o.cfg.ThQuantiles {
			th := float32(sorted[int(q*float64(len(sorted)-1))])
			rk.Th = th
			var ops float64
			var fn, pos int
			var fnMass, posMass float64
			for wi := range sums {
				rk.gatherInto(wins[wi*ksz:(wi+1)*ksz], gath)
				op, _ := rk.Op(gath, bias)
				ops += float64(op)
				if fulls[wi] >= 0 {
					pos++
					posMass += fulls[wi]
					if sums[wi] <= float64(th) {
						fn++
						fnMass += fulls[wi]
					}
				}
			}
			ops /= float64(nWin)
			fnRate := 0.0
			if pos > 0 {
				fnRate = float64(fn) / float64(pos)
			}
			massRatio := 0.0
			if posMass > 0 {
				massRatio = fnMass / posMass
			}
			if massRatio <= fnBudget && ops < exactOps {
				accepted = append(accepted, Candidate{
					Param: KernelParam{Th: th, N: n},
					Op:    ops,
					FN:    fnRate,
				})
			}
		}
	}
	sort.Slice(accepted, func(a, b int) bool { return accepted[a].Op < accepted[b].Op })
	return append(accepted, Candidate{Param: Exact, Op: exactOps})
}

// windowRef identifies one sampled convolution window.
type windowRef struct {
	img      int
	iy0, ix0 int
}

// sampleWindows picks up to cfg.MaxWindows windows of the layer's output
// grid, spread evenly over the optimization images and spatial extent.
func (o *Optimizer) sampleWindows(node string) []windowRef {
	plan := o.net.Plans[node]
	total := plan.outH * plan.outW * len(o.images)
	want := o.cfg.MaxWindows
	if want > total {
		want = total
	}
	stride := float64(total) / float64(want)
	out := make([]windowRef, 0, want)
	for i := 0; i < want; i++ {
		flat := int(float64(i) * stride)
		img := flat / (plan.outH * plan.outW)
		rem := flat % (plan.outH * plan.outW)
		oy := rem / plan.outW
		ox := rem % plan.outW
		out = append(out, windowRef{
			img: img,
			iy0: oy*plan.Conv.StrideH - plan.Conv.PadH,
			ix0: ox*plan.Conv.StrideW - plan.Conv.PadW,
		})
	}
	return out
}

// gatherWindows builds the layer's window matrix: per channel group, the
// sampled windows' input values back to back, each in original flattened
// kernel order with zero padding. A window depends only on its group and
// position, so it is gathered once here rather than once per kernel and
// candidate.
func (o *Optimizer) gatherWindows(node string, windows []windowRef) [][]float32 {
	conv := o.net.Plans[node].Conv
	inCg := conv.InC / conv.Groups
	ksz := conv.KernelSize()
	wins := make([][]float32, conv.Groups)
	for g := range wins {
		wins[g] = make([]float32, len(windows)*ksz)
		for wi, win := range windows {
			in := o.layerInput(node, win.img)
			s := in.Shape()
			ind := in.Data()
			x := wins[g][wi*ksz : (wi+1)*ksz]
			i := 0
			for ci := 0; ci < inCg; ci++ {
				base := (g*inCg + ci) * s.H * s.W
				for ky := 0; ky < conv.KH; ky++ {
					iy := win.iy0 + ky
					for kx := 0; kx < conv.KW; kx++ {
						ix := win.ix0 + kx
						if iy >= 0 && iy < s.H && ix >= 0 && ix < s.W {
							x[i] = ind[base+iy*s.W+ix]
						}
						i++
					}
				}
			}
		}
	}
	return wins
}

// layerInput returns the cached exact-execution input of a conv node for
// one optimization image.
func (o *Optimizer) layerInput(node string, img int) *tensor.Tensor {
	n := o.net.Model.Graph.Node(node)
	return o.caches[img][n.Inputs[0]]
}

// gatherInto is Gather without allocation.
func (rk *ReorderedKernel) gatherInto(orig, dst []float32) {
	for i, idx := range rk.Index {
		dst[i] = orig[idx]
	}
}

// localOptimizationPass implements LOCALOPTIMIZATIONPASS: for each layer
// it forms T configurations (kernel k takes its t-th profiled candidate),
// evaluates each with only that layer speculating, and keeps those within
// ε. The exact configuration is appended as the guaranteed-feasible
// fallback. Completed layers are checkpointed and reused on resume.
func (o *Optimizer) localOptimizationPass(ctx context.Context, paramK map[string][][]Candidate) (map[string][]LayerChoice, error) {
	sp := metrics.StartSpan("tune/local")
	defer sp.End()
	start := progressClock()
	out := make(map[string][]LayerChoice, len(o.net.PlanOrder))
	for li, node := range o.net.PlanOrder {
		if o.ckpt != nil {
			if choices, ok := o.ckpt.Local[node]; ok {
				out[node] = choices
				o.logf("optimizer: local pass %s restored from checkpoint", node)
				continue
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		kands := paramK[node]
		outC := len(kands)
		var choices []LayerChoice
		for t := 0; t < o.cfg.T; t++ {
			params := make(LayerParams, outC)
			anySpec := false
			for k := 0; k < outC; k++ {
				list := kands[k]
				idx := t
				if idx >= len(list) {
					idx = len(list) - 1
				}
				params[k] = list[idx].Param
				if !params[k].IsExact() {
					anySpec = true
				}
			}
			if !anySpec {
				break // further t only repeats the exact config
			}
			op, err := o.evalLayer(node, params)
			if err <= o.cfg.Epsilon {
				choices = append(choices, LayerChoice{Params: params, Op: op, Err: err})
			}
		}
		sort.Slice(choices, func(a, b int) bool { return choices[a].Op < choices[b].Op })
		choices = append(choices, LayerChoice{Params: AllExact(outC), Op: o.exactOps[node], Err: 0})
		out[node] = choices
		if o.ckpt != nil {
			o.ckpt.Local[node] = choices
			o.checkpoint()
		}
		if metrics.Enabled() {
			metrics.C("opt.local_configs", metrics.Labels{"layer": node}).Add(int64(len(choices)))
		}
		o.logf("optimizer: local pass %s kept %d configs", node, len(choices))
		o.progress("local pass", li+1, len(o.net.PlanOrder), start)
	}
	return out, nil
}

// evalLayer measures (total layer ops on D, accuracy loss) with only
// `node` running the given parameters and every other layer exact. The
// per-image suffix re-executions are independent (the plans are
// read-only while they run), so they fan out across the worker pool:
// features land in index-keyed slots and each image's trace is private,
// merged afterwards in image order. TotalOps is an integer counter, so
// the measured op total — and with it every greedy decision downstream —
// cannot depend on evaluation order or worker count.
func (o *Optimizer) evalLayer(node string, params LayerParams) (op float64, errLoss float64) {
	old := o.net.Plans[node]
	o.setPlan(node, params)
	defer func() { o.net.Plans[node] = old }()

	feats := make([][]float32, len(o.images))
	traces := make([]*NetTrace, len(o.images))
	parallel.For(len(o.images), func(_, i int) {
		traces[i] = NewNetTrace()
		feats[i] = o.net.ForwardFrom(o.caches[i], node, RunOpts{}, traces[i])
	})
	var ops int64
	for _, tr := range traces {
		ops += tr.Layers[node].TotalOps
	}
	return float64(ops), o.loss(feats)
}

// loss measures how much worse feats classify than the exact baseline:
// the 0/1 accuracy drop, or its smooth surrogate under SoftLoss.
//
// The surrogate rescales each feature vector to its exact-execution
// norm before reading the softmax. Squashing small positive windows to
// zero shrinks activations *uniformly*, and a uniform feature scaling
// barely moves a linear classifier's argmax while collapsing its softmax
// confidence; without the normalization the surrogate would spend the
// whole ε budget on that harmless shrinkage instead of on genuine
// direction changes.
func (o *Optimizer) loss(feats [][]float32) float64 {
	if !o.cfg.SoftLoss {
		return o.baseAcc - train.Accuracy(o.head, feats, o.labels)
	}
	var drop float64
	var buf []float32
	for i, feat := range feats {
		var nb, nf float64
		for j, v := range feat {
			b := o.baseFeats[i][j]
			nb += float64(b) * float64(b)
			nf += float64(v) * float64(v)
		}
		x := feat
		if nf > 0 && nb > 0 {
			scale := float32(math.Sqrt(nb / nf))
			if cap(buf) < len(feat) {
				buf = make([]float32, len(feat))
			}
			buf = buf[:len(feat)]
			for j, v := range feat {
				buf[j] = v * scale
			}
			x = buf
		}
		if d := o.baseProb[i] - train.ProbT(o.head, x, o.labels[i], o.temp); d > 0 {
			drop += d
		}
	}
	return drop / float64(len(feats)) / o.cfg.SoftScale
}

// globalOptimizationPass implements GLOBALOPTIMIZATIONPASS with the
// paper's merit rule: start every layer at its cheapest acceptable local
// configuration, and while the joint accuracy loss exceeds ε, move the
// layer/configuration with the highest −Δerr/Δop merit to a more
// conservative setting. The pass re-runs from the local-pass output on
// resume (it is cheap relative to profiling and deterministic, so the
// resumed result is identical).
func (o *Optimizer) globalOptimizationPass(ctx context.Context, paramL map[string][]LayerChoice) (*Result, error) {
	sp := metrics.StartSpan("tune/global")
	defer sp.End()
	current := make(map[string]LayerChoice, len(paramL))
	remaining := make(map[string][]LayerChoice, len(paramL))
	for node, choices := range paramL {
		current[node] = choices[0]
		remaining[node] = append([]LayerChoice(nil), choices[1:]...)
		o.setPlan(node, choices[0].Params)
	}
	err := o.evalFull()
	iters := 0
	for err > o.cfg.Epsilon {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		node, idx, ok := o.adjustParam(current, remaining)
		if !ok {
			break // everything already at its most conservative config
		}
		current[node] = remaining[node][idx]
		remaining[node] = append(remaining[node][:idx:idx], remaining[node][idx+1:]...)
		o.setPlan(node, current[node].Params)
		err = o.evalFull()
		iters++
		o.logf("optimizer: global iter %d moved %s, loss %.4f", iters, node, err)
	}
	if metrics.Enabled() {
		metrics.C("opt.global_iters", nil).Add(int64(iters))
	}
	res := &Result{
		Params:      make(map[string]LayerParams, len(current)),
		Predictive:  make(map[string]bool, len(current)),
		FinalAcc:    o.lastAcc,
		GlobalIters: iters,
	}
	for node, choice := range current {
		res.Params[node] = choice.Params
		for _, p := range choice.Params {
			if !p.IsExact() {
				res.Predictive[node] = true
				break
			}
		}
	}
	return res, nil
}

// adjustParam implements ADJUSTPARAM: pick the (layer, candidate) with
// maximal merit −Δerr/Δop relative to the layer's current choice.
// Layers are scanned in topological order, not map order, so merit ties
// break identically on every run — map iteration here used to make the
// global pass nondeterministic whenever two moves tied.
func (o *Optimizer) adjustParam(current map[string]LayerChoice, remaining map[string][]LayerChoice) (string, int, bool) {
	bestMerit := math.Inf(-1)
	bestNode, bestIdx := "", -1
	for _, node := range o.net.PlanOrder {
		list := remaining[node]
		cur := current[node]
		for i, cand := range list {
			dErr := cand.Err - cur.Err
			dOp := cand.Op - cur.Op
			var merit float64
			switch {
			case dErr > 0:
				continue // would worsen the isolated accuracy
			case dOp <= 0:
				merit = math.Inf(1) // strictly better: less error, fewer ops
			default:
				merit = -dErr / dOp
			}
			if merit > bestMerit {
				bestMerit, bestNode, bestIdx = merit, node, i
			}
		}
	}
	if bestIdx < 0 {
		return "", -1, false
	}
	return bestNode, bestIdx, true
}

// evalFull measures the loss with the network's current plans. Images
// fan out across the worker pool into index-keyed feature slots; the
// loss itself is computed serially over them in image order.
func (o *Optimizer) evalFull() float64 {
	feats := parallel.Map(len(o.images), func(_, i int) []float32 {
		return o.net.Feature(o.images[i], RunOpts{}, nil)
	})
	o.lastAcc = train.Accuracy(o.head, feats, o.labels)
	return o.loss(feats)
}

// String summarizes a result.
func (r *Result) String() string {
	return fmt.Sprintf("snapea: %d/%d layers predictive, base %.3f final %.3f, %d global iters",
		len(r.Predictive), len(r.Params), r.BaseAcc, r.FinalAcc, r.GlobalIters)
}
