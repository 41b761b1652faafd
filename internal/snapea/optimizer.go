package snapea

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"snapea/internal/metrics"
	"snapea/internal/nn"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
	"snapea/internal/train"
)

// OptConfig parameterizes Algorithm 1. The zero value of every field
// but Epsilon and SoftLoss selects the configuration the experiment
// suite, snapea-tune and the repo benchmark all run.
type OptConfig struct {
	// Epsilon is the acceptable classification-accuracy loss ε.
	Epsilon float64
	// NCandidates are the group counts tried per kernel (the paper's
	// "number of groups" N). Zero-length means {2, 4, 8}.
	NCandidates []int
	// ThQuantiles are the quantiles of each kernel's speculation-prefix
	// partial-sum distribution used as threshold candidates.
	// Zero-length means {0.4, 0.6, 0.75}.
	ThQuantiles []float64
	// MaxWindows caps the number of convolution windows sampled per
	// kernel during profiling. Zero means 128.
	MaxWindows int
	// T is the number of per-layer configurations the local pass
	// examines (the paper's T). Zero means 3.
	T int
	// SoftLoss makes the local and global passes budget the mean drop
	// of the correct class's softmax probability instead of the 0/1
	// accuracy. With an optimization set of n images, 0/1 accuracy
	// quantizes to 1/n steps — for small n that is far coarser than ε,
	// and the greedy search cannot see gradations the paper's
	// thousands-of-images D resolves. The reported accuracies remain
	// hard 0/1.
	SoftLoss bool
}

const (
	// fnBudgetScale maps ε to the kernel-level error budget used during
	// profiling: a candidate is acceptable when the *mass* of positive
	// convolution outputs it would squash to zero is at most
	// fnBudgetScale × ε of the kernel's total positive output mass.
	// Budgeting mass rather than count makes the admitted errors land
	// on small positive values — the property the paper reports ("more
	// than 86% of the error occurs on the small positive values") and
	// the reason misspeculation barely moves classification. This is
	// the kernel-granularity substitute for the paper's per-kernel
	// full-network Simulate (see DESIGN.md).
	fnBudgetScale = 3
	// softScale maps ε to the surrogate budget (SoftLoss ≤ ε·softScale):
	// a mean correct-class probability drop is mostly margin erosion
	// that never crosses the argmax boundary, so a budget of ε on it is
	// far stricter than ε of 0/1 accuracy.
	softScale = 3
)

func (c OptConfig) normalize() OptConfig {
	if len(c.NCandidates) == 0 {
		c.NCandidates = []int{2, 4, 8}
	}
	if len(c.ThQuantiles) == 0 {
		c.ThQuantiles = []float64{0.4, 0.6, 0.75}
	}
	if c.MaxWindows == 0 {
		c.MaxWindows = 128
	}
	if c.T == 0 {
		c.T = 3
	}
	return c
}

// Candidate is one profiled (Th, N) choice for a kernel, with its
// estimated mean ops per window and false-negative rate.
type Candidate struct {
	Param KernelParam
	Op    float64
	FN    float64
}

// LayerChoice is one per-layer configuration the optimization stage
// weighs: a full set of kernel parameters plus its measured total layer
// ops on the optimization set and its isolated accuracy loss, NaN until
// it is scored.
type LayerChoice struct {
	Params LayerParams
	Op     float64
	Err    float64
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

	// caches holds every node's value per image, one arena each in sum
	// layout: exact execution from prepare on, the global pass's plans
	// once it starts.
	caches    []*arena
	baseFeats [][]float32
	baseAcc   float64
	baseProb  []float64          // correct-class probability per image, exact execution
	temp      float64            // calibrated softmax temperature for the surrogate
	exactOps  map[string]float64 // per-layer exact-mode ops on D
	log       func(string, ...any)

	// spare holds per node a plan this optimizer compiled that no one
	// holds or runs, for the node's next compile to go into.
	spare map[string]*LayerPlan
	wins  []float32 // gatherWindows' matrix, grown to the largest layer
}

// NewOptimizer prepares an optimizer. head must already be trained.
func NewOptimizer(net *Network, head *nn.FC, images []*tensor.Tensor, labels []int, cfg OptConfig) *Optimizer {
	if len(images) == 0 || len(images) != len(labels) {
		panic("snapea: optimizer needs a non-empty labelled optimization set")
	}
	return &Optimizer{net: net, head: head, images: images, labels: labels, cfg: cfg.normalize(), spare: make(map[string]*LayerPlan)}
}

// SetLog installs a progress logger (Printf-style).
func (o *Optimizer) SetLog(f func(string, ...any)) { o.log = f }

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
// search or params output.
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
		// Background context never cancels.
		panic(err)
	}
	return res
}

// RunCtx executes Algorithm 1 under a context: cancellation or deadline
// expiry stops the run between layers and returns the context's error.
// A run is deterministic, so a rerun reproduces what the stopped one
// would have returned.
func (o *Optimizer) RunCtx(ctx context.Context) (*Result, error) {
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
// identical for any worker count. The caches' arenas are allocated on
// the first call only.
func (o *Optimizer) prepare() {
	// Reset every plan to exact, unless it is already what that gives.
	for _, name := range o.net.PlanOrder {
		p := o.net.Plans[name]
		if p.faults != nil || p.NegOrder != o.net.NegOrder || slices.ContainsFunc(p.Params, func(kp KernelParam) bool { return kp != Exact }) {
			o.setPlan(name, AllExact(p.Conv.OutC))
		}
	}
	if len(o.caches) != len(o.images) {
		o.caches = make([]*arena, len(o.images))
		for i, img := range o.images {
			o.caches[i] = o.net.prog.newArena(&o.net.prog.sum, img)
		}
	}
	o.baseFeats = make([][]float32, len(o.images))
	o.exactOps = make(map[string]float64)
	traces := make([]*NetTrace, len(o.images))
	parallel.For(len(o.images), func(_, i int) {
		traces[i] = NewNetTrace()
		o.net.run(o.caches[i], nil, 0, RunOpts{}, traces[i], false)
		o.baseFeats[i] = append([]float32(nil), o.caches[i].vals[o.net.prog.feat].Data()...)
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

// setPlan installs the node's plan recompiled with new parameters, in
// its spare when it has one. The plan it replaces is left as it was.
func (o *Optimizer) setPlan(node string, params LayerParams) {
	o.net.install(node, o.net.Plans[node].recompile(o.spare[node], params, o.net.NegOrder))
	delete(o.spare, node)
}

// kernelProfilingPass implements KERNELPROFILINGPASS: for every kernel it
// measures mean ops and false-negative rate over sampled windows for a
// grid of (th, n) values and keeps the candidates within the kernel-level
// budget, sorted by ascending op. The exact configuration is always the
// final fallback entry.
//
// Kernels are profiled concurrently: each kernel's candidate search only
// reads the shared window matrix and writes its own kands slot, and each
// worker owns a private reorder scratch. The per-kernel arithmetic is
// untouched, so the candidate lists are bit-identical for any worker
// count. Layers stay sequential, and cancellation is checked between
// them.
func (o *Optimizer) kernelProfilingPass(ctx context.Context) (map[string][][]Candidate, error) {
	sp := metrics.StartSpan("tune/profile")
	defer sp.End()
	start := progressClock()
	fnBudget := math.Min(0.5, fnBudgetScale*o.cfg.Epsilon)
	out := make(map[string][][]Candidate, len(o.net.PlanOrder))
	for li, node := range o.net.PlanOrder {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		conv := o.net.Plans[node].Conv
		windows := o.sampleWindows(node)
		wins := o.gatherWindows(node, windows)
		kands := make([][]Candidate, conv.OutC)
		outCg := conv.OutC / conv.Groups
		scratch := make([]profileScratch, parallel.Workers(conv.OutC))
		err := parallel.ForCtx(ctx, conv.OutC, func(w, k int) {
			kands[k] = o.profileKernel(node, k, wins[k/outCg], fnBudget, &scratch[w])
		})
		if err != nil {
			return nil, err
		}
		out[node] = kands
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

// profileScratch is one profiling worker's reusable storage: a gathered
// window, the reordered kernel and the per-window arrays of the kernel
// being profiled.
type profileScratch struct {
	gath                []float32
	fulls, sums, sorted []float64
	prefix              []float32
	rest                []int
	w                   []float32
	idx                 []int32
	reorder             reorderScratch
}

// size readies the scratch for kernels of ksz taps over nWin windows.
func (s *profileScratch) size(ksz, nWin int) {
	if len(s.gath) != ksz {
		s.gath, s.w, s.idx = make([]float32, ksz), make([]float32, ksz), make([]int32, ksz)
	}
	if len(s.fulls) != nWin {
		s.fulls = make([]float64, nWin)
		s.sums = make([]float64, nWin)
		s.sorted = make([]float64, nWin)
		s.prefix = make([]float32, nWin)
		s.rest = make([]int, nWin)
	}
}

// profileKernel runs the (th, n) candidate grid for one kernel over the
// layer's sampled windows — wins, the kernel's group's window matrix
// from gatherWindows — and returns the accepted candidates sorted by
// ascending op, with the exact fallback appended.
//
// For a fixed n the reordered kernel does not depend on th, so each
// window is run once per n, not once per (n, th): Op with threshold th
// counts NumSpec when the float32 prefix sum is ≤ th (false for NaN, as
// in Op), and otherwise its count past the prefix. Every threshold's op
// total is read off those two per-window values.
//
// Reorder drops a kernel's zero weights (static pruning), so the
// executed kernel has nnz ≤ ksz taps: windows are gathered into nnz
// slots, and an n ≥ nnz is skipped like an n ≥ ksz — a prefix that
// covers every tap skips nothing.
func (o *Optimizer) profileKernel(node string, k int, wins []float32, fnBudget float64, s *profileScratch) []Candidate {
	conv := o.net.Plans[node].Conv
	ksz := conv.KernelSize()
	nWin := len(wins) / ksz
	s.size(ksz, nWin)
	fulls, sums, prefix, rest := s.fulls, s.sums, s.prefix, s.rest
	w := conv.Kernel(k)
	bias := conv.Bias[k]
	// Exact baseline per window.
	rkE := reorderInto(w, Exact, o.net.NegOrder, s.w, s.idx, &s.reorder)
	nnz := len(rkE.Index)
	gath := s.gath[:nnz]
	var exactOps float64
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
		if n >= nnz {
			continue
		}
		rk := reorderInto(w, KernelParam{N: n}, o.net.NegOrder, s.w, s.idx, &s.reorder)
		// Speculation-prefix sums per window → threshold grid; the
		// float32 prefix and past-prefix count → every threshold's ops.
		for wi := range sums {
			xbuf := wins[wi*ksz : (wi+1)*ksz]
			sum := float64(bias)
			for i := 0; i < rk.NumSpec; i++ {
				sum += float64(rk.Weights[i]) * float64(xbuf[rk.Index[i]])
			}
			sums[wi] = sum
			rk.gatherInto(xbuf, gath)
			prefix[wi] = rk.prefixSum(gath, bias)
			rest[wi], _ = rk.opPastPrefix(gath, prefix[wi])
		}
		sorted := append(s.sorted[:0], sums...)
		sort.Float64s(sorted)
		for _, q := range o.cfg.ThQuantiles {
			th := float32(sorted[int(q*float64(len(sorted)-1))])
			var ops float64
			var fn, pos int
			var fnMass, posMass float64
			for wi := range sums {
				op := rest[wi]
				if rk.NumSpec > 0 && prefix[wi] <= th {
					op = rk.NumSpec
				}
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
// candidate. The matrix is o.wins, valid until the next call.
func (o *Optimizer) gatherWindows(node string, windows []windowRef) [][]float32 {
	conv := o.net.Plans[node].Conv
	inCg := conv.InC / conv.Groups
	ksz := conv.KernelSize()
	per := len(windows) * ksz
	if cap(o.wins) < conv.Groups*per {
		o.wins = make([]float32, conv.Groups*per)
	}
	wins := make([][]float32, conv.Groups)
	for g := range wins {
		wins[g] = o.wins[g*per : (g+1)*per]
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
						x[i] = 0
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
	return o.caches[img].vals[o.net.prog.steps[o.net.prog.ids[node]-1].ins[0]]
}

// gatherInto is Gather without allocation.
func (rk *ReorderedKernel) gatherInto(orig, dst []float32) {
	for i, idx := range rk.Index {
		dst[i] = orig[idx]
	}
}

// localOptimizationPass implements LOCALOPTIMIZATIONPASS in two steps
// per layer. It forms T configurations (kernel k takes its t-th profiled
// candidate) and counts each one's layer ops on D, which runs the layer
// alone; then it scores their isolated accuracy loss in (Op, t) order
// until the first within ε, the layer's start. The configurations after
// the start keep a NaN Err: the global pass reads them only when it
// moves, and scores them then (settle). The exact configuration is
// appended as the guaranteed-feasible fallback. Scored in full, the
// choices are those within ε in (Op, t) order, exact last.
func (o *Optimizer) localOptimizationPass(ctx context.Context, paramK map[string][][]Candidate) (map[string][]LayerChoice, error) {
	sp := metrics.StartSpan("tune/local")
	defer sp.End()
	start := progressClock()
	out := make(map[string][]LayerChoice, len(o.net.PlanOrder))
	for li, node := range o.net.PlanOrder {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		configs := o.layerConfigs(node, paramK[node])
		evals := 0
		var choices []LayerChoice
		for i := range configs {
			evals++
			if configs[i].Err = o.evalLayer(node, configs[i].Params); configs[i].Err <= o.cfg.Epsilon {
				choices = configs[i:]
				break
			}
		}
		choices = append(choices, LayerChoice{Params: AllExact(len(paramK[node])), Op: o.exactOps[node], Err: 0})
		out[node] = choices
		o.logf("optimizer: local pass %s scored %d of %d configs", node, evals, len(configs))
		o.progress("local pass", li+1, len(o.net.PlanOrder), start)
	}
	return out, nil
}

// layerConfigs forms the layer's T configurations, stopping at the first
// that speculates nowhere (further t only repeat it), and returns them in
// (Op, t) order with their layer ops on D and a NaN Err.
func (o *Optimizer) layerConfigs(node string, kands [][]Candidate) []LayerChoice {
	var configs []LayerChoice
	for t := 0; t < o.cfg.T; t++ {
		params := make(LayerParams, len(kands))
		anySpec := false
		for k, list := range kands {
			params[k] = list[min(t, len(list)-1)].Param
			anySpec = anySpec || !params[k].IsExact()
		}
		if !anySpec {
			break
		}
		// Insertion in t order after every configuration with Op ≤ its
		// own: (Op, t) order.
		configs = append(configs, LayerChoice{Params: params, Op: o.layerOps(node, params), Err: math.NaN()})
		for i := len(configs) - 1; i > 0 && configs[i-1].Op > configs[i].Op; i-- {
			configs[i-1], configs[i] = configs[i], configs[i-1]
		}
	}
	return configs
}

// layerOps counts node's total ops on D under the given parameters: the
// node's plan alone, counted, on each image's cached exact input, into
// its slot of an arena of the pool. The images fan out across the
// worker pool; TotalOps is an integer counter, merged in image order.
func (o *Optimizer) layerOps(node string, params LayerParams) float64 {
	plan := o.net.Plans[node].recompile(o.spare[node], params, o.net.NegOrder)
	o.spare[node] = plan
	id := o.net.prog.ids[node]
	ops := make([]int64, len(o.images))
	parallel.For(len(o.images), func(_, i int) {
		a := o.net.take(o.images[i])
		_, tr := plan.runTo(a.vals[id], o.layerInput(node, i), RunOpts{}, true)
		o.net.give(a)
		ops[i] = tr.TotalOps
	})
	var total int64
	for _, n := range ops {
		total += n
	}
	return float64(total)
}

// evalLayer measures the accuracy loss on D with only `node` running the
// given parameters and every other layer exact: the caches must hold
// exact values and every other plan must be exact. The per-image suffix
// re-executions are independent (the plans are read-only while they
// run), so they fan out across the worker pool with no trace — layerOps
// counts the layer — and their features land in index-keyed slots.
// opt.local_evals counts the calls.
func (o *Optimizer) evalLayer(node string, params LayerParams) float64 {
	if metrics.Enabled() {
		metrics.C("opt.local_evals", metrics.Labels{"layer": node}).Add(1)
	}
	old := o.net.Plans[node]
	o.spare[node] = old.recompile(o.spare[node], params, o.net.NegOrder)
	o.net.install(node, o.spare[node])
	defer o.net.install(node, old)

	id := o.net.prog.ids[node]
	feats := make([][]float32, len(o.images))
	parallel.For(len(o.images), func(_, i int) {
		feats[i] = o.net.forwardFrom(o.caches[i].vals, id, RunOpts{}, nil, false)
	})
	return o.loss(feats)
}

// settle scores every configuration the local pass left unscored (NaN
// Err) and keeps those within ε, in their (Op, t) place: the choices
// an eager local pass, scoring every configuration, would have made.
// Every plan must be exact and the caches must hold exact values, as for
// evalLayer. Cancellation is checked between layers.
func (o *Optimizer) settle(ctx context.Context, paramL map[string][]LayerChoice) error {
	for _, node := range o.net.PlanOrder {
		if err := ctx.Err(); err != nil {
			return err
		}
		kept := paramL[node][:0]
		for _, c := range paramL[node] {
			if math.IsNaN(c.Err) {
				if c.Err = o.evalLayer(node, c.Params); !(c.Err <= o.cfg.Epsilon) {
					continue
				}
			}
			kept = append(kept, c)
		}
		paramL[node] = kept
	}
	return nil
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
	return drop / float64(len(feats)) / softScale
}

// globalOptimizationPass implements GLOBALOPTIMIZATIONPASS with the
// paper's merit rule: start every layer at its cheapest acceptable local
// configuration, and while the joint accuracy loss exceeds ε, move the
// layer/configuration with the highest −Δerr/Δop merit to a more
// conservative setting. The start is checked by a whole forward per
// image in the pool's arenas, so a start within ε ends the pass with the
// caches still exact and no other configuration scored. Only a pass
// that must move settles the layers' unscored configurations — with
// prepare's exact plans reinstalled for it — and recomputes the caches
// under the start.
func (o *Optimizer) globalOptimizationPass(ctx context.Context, paramL map[string][]LayerChoice) (*Result, error) {
	sp := metrics.StartSpan("tune/global")
	defer sp.End()
	current := make(map[string]LayerChoice, len(paramL))
	plans := make(map[string]*LayerPlan, len(paramL)) // prepare's exact plans
	for node, choices := range paramL {
		current[node] = choices[0]
		plans[node] = o.net.Plans[node]
		o.setPlan(node, choices[0].Params)
	}
	err, acc := o.evalStart()
	iters := 0
	if err > o.cfg.Epsilon {
		// Settle under the exact plans, then swap the start's back in.
		for node, p := range plans {
			plans[node] = o.net.Plans[node]
			o.net.install(node, p)
		}
		serr := o.settle(ctx, paramL)
		for node, p := range plans {
			o.net.install(node, p)
		}
		if serr != nil {
			return nil, serr
		}
		o.recache()
		remaining := make(map[string][]LayerChoice, len(paramL))
		for node, choices := range paramL {
			remaining[node] = append([]LayerChoice(nil), choices[1:]...)
		}
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
			old := o.net.Plans[node]
			o.setPlan(node, current[node].Params)
			o.spare[node] = old // compiled by this pass, held by no caller
			err, acc = o.evalMove(node)
			iters++
			o.logf("optimizer: global iter %d moved %s, loss %.4f", iters, node, err)
		}
	}
	if metrics.Enabled() {
		metrics.C("opt.global_iters", nil).Add(int64(iters))
	}
	res := &Result{
		Params:      make(map[string]LayerParams, len(current)),
		Predictive:  make(map[string]bool, len(current)),
		FinalAcc:    acc,
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

// recache recomputes every image's cache under the current plans, in
// its own arena: the global pass's starting point, so a move re-executes
// from its own layer only.
func (o *Optimizer) recache() {
	parallel.For(len(o.caches), func(_, i int) {
		o.net.run(o.caches[i], nil, 0, RunOpts{}, nil, false)
	})
}

// evalMove measures the loss after the global pass moved node to a new
// plan. The caches hold every node's value per image under the plans
// before the move; each image re-executes from node and writes the nodes
// whose values changed into its cache, so the caches end up equal to a
// full forward under the new plans. Images fan out across the worker
// pool, each writing only its own cache.
func (o *Optimizer) evalMove(node string) (loss, acc float64) {
	id := o.net.prog.ids[node]
	parallel.For(len(o.caches), func(_, i int) {
		o.net.forwardFrom(o.caches[i].vals, id, RunOpts{}, nil, true)
	})
	return o.evalCached()
}

// evalStart measures the loss and the hard accuracy of the installed
// plans by a whole forward per image, each in an arena of the pool, so
// the caches are left as they were.
func (o *Optimizer) evalStart() (loss, acc float64) {
	feats := make([][]float32, len(o.images))
	parallel.For(len(o.images), func(_, i int) {
		feats[i] = o.net.Feature(o.images[i], RunOpts{}, nil)
	})
	return o.loss(feats), train.Accuracy(o.head, feats, o.labels)
}

// evalCached measures the loss and the hard accuracy of the cached
// feature vectors, serially in image order.
func (o *Optimizer) evalCached() (loss, acc float64) {
	feats := make([][]float32, len(o.caches))
	for i, a := range o.caches {
		feats[i] = a.vals[o.net.prog.feat].Data()
	}
	return o.loss(feats), train.Accuracy(o.head, feats, o.labels)
}

// String summarizes a result.
func (r *Result) String() string {
	return fmt.Sprintf("snapea: %d/%d layers predictive, base %.3f final %.3f, %d global iters",
		len(r.Predictive), len(r.Params), r.BaseAcc, r.FinalAcc, r.GlobalIters)
}
