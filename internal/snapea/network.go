package snapea

import (
	"fmt"
	"sync"

	"snapea/internal/faults"
	"snapea/internal/metrics"
	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/tensor"
)

// Network is a model compiled for SnaPEA execution: every ReLU-fused
// convolution layer has a LayerPlan (exact or predictive per its
// parameters); all other layers run unmodified.
type Network struct {
	Model    *models.Model
	NegOrder NegOrder
	// Plans maps conv node names to their compiled plans, in no
	// particular order; PlanOrder lists the node names topologically.
	Plans     map[string]*LayerPlan
	PlanOrder []string
	// FCPlans holds exact early-termination plans for ReLU-fused FC
	// layers, each a 1×1 LayerPlan over the flattened input; nil unless
	// EnableFC was called.
	FCPlans map[string]*LayerPlan
	// Faults is the injector the network was compiled with; nil for a
	// clean network.
	Faults *faults.Injector
}

// Compile builds a Network. params maps conv node names to per-kernel
// speculation parameters; a missing or nil entry compiles that layer in
// exact mode. Compile panics on params for unknown nodes being absent —
// unknown names are simply ignored so callers can reuse parameter maps
// across scales.
func Compile(m *models.Model, params map[string]LayerParams, negOrder NegOrder) *Network {
	return CompileFaulty(m, params, negOrder, nil)
}

// CompileFaulty builds a Network whose compiled state carries injected
// faults: weight-buffer bit flips, stuck-at-zero kernels, and (Th, N)
// perturbation at compile time, plus activation corruption on every
// layer execution. A nil injector compiles a clean network; the model's
// own parameters (its "DRAM copy") are never modified — faults live
// only in the compiled per-kernel buffers, mirroring SRAM soft errors
// in the accelerator.
func CompileFaulty(m *models.Model, params map[string]LayerParams, negOrder NegOrder, inj *faults.Injector) *Network {
	net := &Network{
		Model:    m,
		NegOrder: negOrder,
		Plans:    make(map[string]*LayerPlan),
		Faults:   inj,
	}
	shapes := map[string]tensor.Shape{nn.InputName: m.InputShape}
	for _, n := range m.Graph.Nodes() {
		ins := make([]tensor.Shape, len(n.Inputs))
		for i, name := range n.Inputs {
			ins[i] = shapes[name]
		}
		shapes[n.Name] = n.Layer.OutShape(ins)
		conv, ok := n.Layer.(*nn.Conv2D)
		if !ok || !conv.ReLU {
			continue
		}
		var p LayerParams
		if params != nil {
			p = params[n.Name]
		}
		net.Plans[n.Name] = NewLayerPlanFaulty(n.Name, conv, ins[0], p, negOrder, inj)
		net.PlanOrder = append(net.PlanOrder, n.Name)
	}
	return net
}

// CompileExact compiles every convolution in exact mode.
func CompileExact(m *models.Model) *Network { return Compile(m, nil, NegByMagnitude) }

// CompileParams validates a parameters file against a model and compiles
// the network it describes, returning errors (not panics) on unknown
// layer names, kernel-count mismatches, out-of-range N, or non-finite
// thresholds — the hardened path for loading externally produced files.
func CompileParams(m *models.Model, f *ParamsFile, negOrder NegOrder) (*Network, error) {
	if err := f.Check(m); err != nil {
		return nil, err
	}
	params := make(map[string]LayerParams, len(f.Layers))
	for node, p := range f.Layers {
		params[node] = p
	}
	return Compile(m, params, negOrder), nil
}

// Check validates a parameters file against a concrete model: every
// named layer must exist as a ReLU-fused convolution, carry exactly one
// parameter per output channel, and keep N below the kernel size.
func (f *ParamsFile) Check(m *models.Model) error {
	convs := make(map[string]*nn.Conv2D)
	for _, n := range m.Graph.Nodes() {
		if conv, ok := n.Layer.(*nn.Conv2D); ok && conv.ReLU {
			convs[n.Name] = conv
		}
	}
	for node, params := range f.Layers {
		conv, ok := convs[node]
		if !ok {
			return fmt.Errorf("snapea: params layer %q does not name a ReLU convolution of %s", node, m.Name)
		}
		if len(params) != conv.OutC {
			return fmt.Errorf("snapea: %s: %d kernel params, layer has %d output channels", node, len(params), conv.OutC)
		}
		for i, p := range params {
			if p.N >= conv.KernelSize() {
				return fmt.Errorf("snapea: %s kernel %d: N=%d out of range for kernel size %d", node, i, p.N, conv.KernelSize())
			}
		}
	}
	return nil
}

// NetTrace aggregates layer traces for one or more forward passes. A
// single trace may be shared across concurrent Forward calls — a caller
// fanning images out over goroutines may sum them into one — so the
// aggregate map is guarded by an internal mutex. Direct reads of Layers
// are only safe once every concurrent Forward has returned.
type NetTrace struct {
	mu     sync.Mutex
	Layers map[string]*LayerTrace
}

// NewNetTrace returns an empty trace.
func NewNetTrace() *NetTrace { return &NetTrace{Layers: make(map[string]*LayerTrace)} }

// Add merges a layer trace into the aggregate.
func (t *NetTrace) Add(tr *LayerTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.Layers[tr.Node]; ok {
		prev.TotalOps += tr.TotalOps
		prev.DenseOps += tr.DenseOps
		prev.Windows += tr.Windows
		prev.SpecZero += tr.SpecZero
		prev.SignZero += tr.SignZero
		prev.TruthNeg += tr.TruthNeg
		prev.SpecTN += tr.SpecTN
		prev.SpecFN += tr.SpecFN
		prev.Batch += tr.Batch
		prev.InputElems += tr.InputElems
		// Weights are loaded once per layer regardless of how many
		// images stream through, so WeightElems does not accumulate.
		prev.Ops = append(prev.Ops, tr.Ops...)
		return
	}
	cp := *tr
	t.Layers[tr.Node] = &cp
}

// Totals returns the executed and dense MAC counts over all layers.
func (t *NetTrace) Totals() (total, dense int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.Layers {
		total += tr.TotalOps
		dense += tr.DenseOps
	}
	return total, dense
}

// Reduction returns the overall fraction of convolution MACs removed.
func (t *NetTrace) Reduction() float64 {
	total, dense := t.Totals()
	if dense == 0 {
		return 0
	}
	return 1 - float64(total)/float64(dense)
}

// Rates returns the network-wide true- and false-negative rates of the
// predictive mechanism (Table V).
func (t *NetTrace) Rates() (tnr, fnr float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var truthNeg, truthPos, tn, fn int64
	for _, tr := range t.Layers {
		truthNeg += tr.TruthNeg
		truthPos += tr.Windows - tr.TruthNeg
		tn += tr.SpecTN
		fn += tr.SpecFN
	}
	if truthNeg > 0 {
		tnr = float64(tn) / float64(truthNeg)
	}
	if truthPos > 0 {
		fnr = float64(fn) / float64(truthPos)
	}
	return tnr, fnr
}

// exec returns the per-node executor override that routes convolution
// nodes, and FC nodes when EnableFC was called, through their plans. A
// count is computed iff it is read: plans run counted (LayerPlan.Run)
// when there is a trace to add to or metrics to record, and uncounted
// otherwise — the same outputs, without the suffix replays.
func (net *Network) exec(opts RunOpts, trace *NetTrace) nn.Exec {
	count := trace != nil || metrics.Enabled()
	return func(node *nn.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool) {
		plan, in := net.Plans[node.Name], ins[0]
		if plan == nil {
			if plan = net.FCPlans[node.Name]; plan == nil {
				return nil, false
			}
			// The flatten nn.FC does: {N,C,H,W} → {N,C·H·W,1,1}.
			s := in.Shape()
			in = tensor.Wrap(tensor.Shape{N: s.N, C: s.C * s.H * s.W, H: 1, W: 1}, in.Data())
		}
		if !count {
			return plan.runUncounted(in), true
		}
		out, tr := plan.Run(in, opts)
		if trace != nil {
			trace.Add(tr)
		}
		return out, true
	}
}

// Forward runs the compiled network on one image, returning the graph
// output and accumulating layer traces into trace (which may be nil;
// with metrics off too, the layers then run uncounted).
func (net *Network) Forward(img *tensor.Tensor, opts RunOpts, trace *NetTrace) *tensor.Tensor {
	return net.Model.Graph.ForwardExec(img, nil, net.exec(opts, trace))
}

// ForwardChecked is Forward behind the boundary validation the hardened
// pipeline needs: the input's shape and finiteness are verified ONCE
// here, and every layer below runs the unchecked hot path. That split
// is deliberate — a finite input through finite weights yields finite
// post-ReLU activations, so per-layer re-scans (one full pass over
// every intermediate tensor) would buy nothing but memory traffic. The
// scan-count regression test holds this to exactly one FirstNonFinite
// call per forward, whatever the network's depth. The batch dimension
// may be any N ≥ 1; C, H, W must match the model's input shape.
func (net *Network) ForwardChecked(img *tensor.Tensor, opts RunOpts, trace *NetTrace) (*tensor.Tensor, error) {
	s := img.Shape()
	want := net.Model.InputShape
	if s.C != want.C || s.H != want.H || s.W != want.W {
		return nil, fmt.Errorf("snapea: %s compiled for %v, got %v", net.Model.Name, want, s)
	}
	if i := FirstNonFinite(img.Data()); i >= 0 {
		return nil, fmt.Errorf("snapea: %s: non-finite input at element %d (%v): early termination is undefined on non-finite partial sums; sanitize the input or use the dense nn path", net.Model.Name, i, img.Data()[i])
	}
	return net.Forward(img, opts, trace), nil
}

// Feature runs the network and returns the flattened feature-node output
// (the classifier head's input), so accuracy under SnaPEA execution can
// be measured with the trained head.
func (net *Network) Feature(img *tensor.Tensor, opts RunOpts, trace *NetTrace) []float32 {
	var feat []float32
	net.Model.Graph.ForwardExec(img, func(name string, t *tensor.Tensor) {
		if name == net.Model.FeatureNode {
			cp := make([]float32, len(t.Data()))
			copy(cp, t.Data())
			feat = cp
		}
	}, net.exec(opts, trace))
	return feat
}

// CacheAll runs the network and returns every node's output (keyed by
// node name, plus the input under nn.InputName). The optimizer uses this
// to re-run only the suffix of the graph affected by one layer's
// speculation.
func (net *Network) CacheAll(img *tensor.Tensor, opts RunOpts) map[string]*tensor.Tensor {
	vals := map[string]*tensor.Tensor{nn.InputName: img}
	net.Model.Graph.ForwardExec(img, func(name string, t *tensor.Tensor) {
		vals[name] = t
	}, net.exec(opts, nil))
	return vals
}

// ForwardFrom recomputes node `from` and everything downstream of it,
// taking every other node's value from base, and returns the feature
// vector. Nodes after `from` in topological order that do not depend on
// it — sibling branches of a fire or inception module — are not
// re-executed: their cached values are already what a re-execution
// would produce. trace (which may be nil) records `from` alone — the
// layer whose cost Algorithm 1 is measuring; the layers downstream run
// uncounted unless metrics are on. base is not modified.
func (net *Network) ForwardFrom(base map[string]*tensor.Tensor, from string, opts RunOpts, trace *NetTrace) []float32 {
	// vals holds the recomputed nodes, which are exactly the ones whose
	// value may differ from base's.
	vals := make(map[string]*tensor.Tensor)
	execFrom, execRest := net.exec(opts, trace), net.exec(opts, nil)
	lookup := func(name string) *tensor.Tensor {
		if v, ok := vals[name]; ok {
			return v
		}
		if v, ok := base[name]; ok {
			return v
		}
		panic("snapea: ForwardFrom missing value for " + name)
	}
	for _, n := range net.Model.Graph.Nodes() {
		stale := n.Name == from
		for _, name := range n.Inputs {
			if _, ok := vals[name]; ok {
				stale = true
			}
		}
		if !stale {
			continue
		}
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for j, name := range n.Inputs {
			ins[j] = lookup(name)
		}
		exec := execRest
		if n.Name == from {
			exec = execFrom
		}
		out, done := exec(n, ins)
		if !done {
			out = n.Layer.Forward(ins)
		}
		vals[n.Name] = out
	}
	if len(vals) == 0 {
		panic("snapea: ForwardFrom unknown node " + from)
	}
	// The feature node comes from the cache when `from` does not reach it.
	t := lookup(net.Model.FeatureNode)
	feat := make([]float32, len(t.Data()))
	copy(feat, t.Data())
	return feat
}
