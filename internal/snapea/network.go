package snapea

import (
	"fmt"
	"math"
	"sort"
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
	// A plan is replaced through install, which updates its step too.
	Plans     map[string]*LayerPlan
	PlanOrder []string
	// FCPlans holds exact early-termination plans for ReLU-fused FC
	// layers, each a 1×1 LayerPlan over the flattened input; nil unless
	// EnableFC was called.
	FCPlans map[string]*LayerPlan
	// Faults is the injector the network was compiled with; nil for a
	// clean network.
	Faults *faults.Injector

	// prog is the forward the network runs; pool holds its idle arenas in
	// live layout, one per forward that ran at once. A mutex-guarded
	// list, not a sync.Pool, which a GC empties.
	prog   *program
	poolMu sync.Mutex
	pool   []*arena
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
		prog:     newProgram(m),
	}
	for _, st := range net.prog.steps {
		conv, ok := st.node.Layer.(*nn.Conv2D)
		if !ok || !conv.ReLU {
			continue
		}
		var p LayerParams
		if params != nil {
			p = params[st.node.Name]
		}
		net.install(st.node.Name, NewLayerPlanFaulty(st.node.Name, conv, net.prog.shapes[st.ins[0]], p, negOrder, inj))
		net.PlanOrder = append(net.PlanOrder, st.node.Name)
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

// program is a compiled network's forward: the graph's nodes as steps in
// topological order, and the slot layouts their values live in. Value ids
// number the graph input 0 and step i's output i+1.
type program struct {
	steps  []step
	ids    map[string]int // node name (and nn.InputName) → value id
	shapes []tensor.Shape // per value id, for one image
	// out and feat are the value ids of the graph output and the feature
	// node (the input when the model names none), both live to the end.
	out, feat int
	// live places the values by liveness in program order: a slot is
	// reused only after the last step that reads its previous value, so
	// any subset of the steps walked in order (forwardFrom) may use it.
	// sum gives every value its own slot: the Optimizer's caches.
	live, sum layout
}

// step is one node of the program: what runs, and the value ids it reads.
type step struct {
	node  *nn.Node
	ins   []int
	plan  *LayerPlan // the node's conv or FC plan; nil runs the layer
	flat  bool       // an FC plan, which reads its input flattened
	into  intoLayer  // the layer, when it writes into a slot
	alias bool       // an identity (Dropout): its value is its input's
}

// intoLayer is a layer that can write its output into a slot, whatever
// the slot held: nn.Concat, nn.MaxPool2D, nn.LRN, nn.FC and
// nn.GlobalAvgPool. Any other layer's output is copied into its slot.
type intoLayer interface {
	ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor)
}

// layout is a slot plan for one image: each value's offset into an
// arena (an alias's is its input's; the graph input has none) and the
// arena's length. A batch of N scales both by N: the slots of values
// live at once stay disjoint.
type layout struct {
	offs []int
	size int
}

// newProgram compiles m's graph into steps, without plans, and lays out
// its values: from the shapes alone, so it runs on a Full model whose
// weights were never filled.
func newProgram(m *models.Model) *program {
	nodes := m.Graph.Nodes()
	p := &program{steps: make([]step, len(nodes)), ids: map[string]int{nn.InputName: 0}, shapes: make([]tensor.Shape, len(nodes)+1)}
	p.shapes[0] = m.InputShape
	p.shapes[0].N = 1
	var shapes []tensor.Shape
	for i, n := range nodes {
		st := &p.steps[i]
		st.node, shapes = n, shapes[:0]
		for _, name := range n.Inputs {
			st.ins = append(st.ins, p.ids[name])
			shapes = append(shapes, p.shapes[p.ids[name]])
		}
		_, st.alias = n.Layer.(nn.Dropout)
		st.into, _ = n.Layer.(intoLayer)
		p.shapes[i+1] = n.Layer.OutShape(shapes)
		p.ids[n.Name] = i + 1
	}
	p.out, p.feat = p.ids[m.Graph.Output()], p.ids[m.FeatureNode]
	// A value's storage lives from its step to the last step that reads
	// it or any alias of it.
	end := make([]int, len(p.shapes))
	for i := range p.steps {
		end[i+1] = i
		for _, in := range p.steps[i].ins {
			end[p.root(in)] = i
		}
	}
	end[p.root(p.out)], end[p.root(p.feat)] = len(p.steps), len(p.steps)
	p.live, p.sum = p.pack(end, false), p.pack(end, true)
	return p
}

// root is the value whose storage value id holds: itself, or through a
// chain of aliases, the value they pass on.
func (p *program) root(id int) int {
	for id > 0 && p.steps[id-1].alias {
		id = p.steps[id-1].ins[0]
	}
	return id
}

// pack assigns slots by greedy interval colouring: largest value first,
// each at the lowest offset clear of every placed value whose interval
// (its step through end) overlaps its own, or of every placed value when
// whole is set.
func (p *program) pack(end []int, whole bool) layout {
	var order []int
	for id := 1; id < len(p.shapes); id++ {
		if p.root(id) == id {
			order = append(order, id)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		na, nb := p.shapes[order[a]].Elems(), p.shapes[order[b]].Elems()
		return na > nb || na == nb && order[a] < order[b]
	})
	l := layout{offs: make([]int, len(p.shapes))}
	for i, v := range order {
		// Past every clashing slot the candidate overlaps, until none:
		// no lower offset is clear of that slot.
		off, n := 0, p.shapes[v].Elems()
		for moved := true; moved; {
			moved = false
			for _, u := range order[:i] {
				uEnd := l.offs[u] + p.shapes[u].Elems()
				if (whole || u-1 <= end[v] && v-1 <= end[u]) && off < uEnd && l.offs[u] < off+n {
					off, moved = uEnd, true
				}
			}
		}
		l.offs[v], l.size = off, max(l.size, off+n)
	}
	for id := range l.offs {
		l.offs[id] = l.offs[p.root(id)]
	}
	l.offs[0] = -1
	return l
}

// arena is one batch size's storage for a program's values, laid out
// by one of its layouts: a forward in flight, or one image's cache.
type arena struct {
	batch   int
	data    []float32
	vals    []*tensor.Tensor // by value id: the input, then each step's slot
	changed []bool           // a subset walk's values that differ from base
	ins     []*tensor.Tensor // a step's inputs, reused
}

// newArena returns an arena laid out by l for img's batch size, with img
// as its input.
func (p *program) newArena(l *layout, img *tensor.Tensor) *arena {
	n := img.Shape().N
	a := &arena{batch: n, data: make([]float32, l.size*n), vals: make([]*tensor.Tensor, len(p.shapes)), changed: make([]bool, len(p.shapes))}
	a.vals[0] = img
	for id := 1; id < len(p.shapes); id++ {
		if p.steps[id-1].alias {
			continue // run sets it to its input's value
		}
		s := p.shapes[id]
		s.N = n
		off := l.offs[id] * n
		a.vals[id] = tensor.Wrap(s, a.data[off:off+s.Elems():off+s.Elems()])
	}
	return a
}

// install makes plan the node's: in Plans, and in the program's step.
func (net *Network) install(node string, plan *LayerPlan) {
	net.Plans[node] = plan
	net.prog.steps[net.prog.ids[node]-1].plan = plan
}

// run executes the program into a, whose vals[0] is the input. With base
// nil it runs every step. With base it runs the stale subset: step from
// and each step that reads a changed value, reading every other value
// from base; a.changed marks the values that differ from base's in
// Float32bits, and commit writes each one into base's storage as soon as
// it is known. trace records every plan a whole run runs, and from alone
// of a subset. A count is computed iff it is read: a plan runs counted
// when there is a trace to add to or metrics to record, and uncounted
// otherwise — the same outputs, without the suffix replays.
func (net *Network) run(a *arena, base []*tensor.Tensor, from int, opts RunOpts, trace *NetTrace, commit bool) {
	count := metrics.Enabled()
	for i := range net.prog.steps {
		st, id := &net.prog.steps[i], i+1
		if base != nil {
			stale := id == from
			for _, in := range st.ins {
				stale = stale || a.changed[in]
			}
			if a.changed[id] = false; !stale {
				continue
			}
		}
		ins := a.ins[:0]
		for _, in := range st.ins {
			if base != nil && !a.changed[in] {
				ins = append(ins, base[in])
			} else {
				ins = append(ins, a.vals[in])
			}
		}
		a.ins = ins
		out, tr := a.vals[id], trace
		if base != nil && id != from {
			tr = nil
		}
		switch {
		case st.alias: // every subset step sets changed before a later one reads it
			a.vals[id], a.changed[id] = ins[0], a.changed[st.ins[0]]
			continue
		case st.plan != nil:
			in := ins[0]
			if st.flat {
				s := in.Shape()
				in = tensor.Wrap(tensor.Shape{N: s.N, C: s.C * s.H * s.W, H: 1, W: 1}, in.Data())
			}
			if _, lt := st.plan.runTo(out, in, opts, tr != nil || count); tr != nil {
				tr.Add(lt)
			}
		case st.into != nil:
			st.into.ForwardInto(ins, out)
		default:
			copy(out.Data(), st.node.Layer.Forward(ins).Data())
		}
		if base != nil {
			a.changed[id] = !sameBits(base[id].Data(), out.Data())
			if commit && a.changed[id] {
				copy(base[id].Data(), out.Data())
			}
		}
	}
}

// Forward runs the compiled network on one image, returning the graph
// output and accumulating layer traces into trace (which may be nil;
// with metrics off too, the layers then run uncounted). The output is
// the caller's: the activations live in an arena of the network's pool.
func (net *Network) Forward(img *tensor.Tensor, opts RunOpts, trace *NetTrace) *tensor.Tensor {
	a := net.take(img)
	defer net.give(a)
	net.run(a, nil, 0, opts, trace, false)
	return a.vals[net.prog.out].Clone()
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
	a := net.take(img)
	defer net.give(a)
	net.run(a, nil, 0, opts, trace, false)
	return append([]float32(nil), a.vals[net.prog.feat].Data()...)
}

// CacheAll runs the network and returns every node's output (keyed by
// node name, plus the input under nn.InputName), each in its own slot
// of a fresh arena: a Dropout's value is its input's.
func (net *Network) CacheAll(img *tensor.Tensor, opts RunOpts) map[string]*tensor.Tensor {
	a := net.prog.newArena(&net.prog.sum, img)
	net.run(a, nil, 0, opts, nil, false)
	vals := make(map[string]*tensor.Tensor, len(a.vals))
	for name, id := range net.prog.ids {
		vals[name] = a.vals[id]
	}
	return vals
}

// ForwardFrom recomputes node `from` and everything downstream of it,
// taking every other node's value from base, and returns the feature
// vector. Nodes after `from` in topological order that do not depend on
// it — sibling branches of a fire or inception module — are not
// re-executed: their cached values are already what a re-execution
// would produce. Neither are the consumers of a recomputed node whose
// output came out bit-identical to base's. trace (which may be nil)
// records `from` alone — the layer whose cost Algorithm 1 is measuring;
// the layers downstream run uncounted unless metrics are on. base is
// not modified.
func (net *Network) ForwardFrom(base map[string]*tensor.Tensor, from string, opts RunOpts, trace *NetTrace) []float32 {
	vals := make([]*tensor.Tensor, len(net.prog.shapes))
	for name, id := range net.prog.ids {
		vals[id] = base[name]
	}
	if id := net.prog.ids[from]; id > 0 {
		return net.forwardFrom(vals, id, opts, trace, false)
	}
	panic("snapea: ForwardFrom unknown node " + from)
}

// forwardFrom is ForwardFrom on base by value id, walking the stale
// subset of the program in an arena of the pool; with commit, base takes
// every changed value.
func (net *Network) forwardFrom(base []*tensor.Tensor, from int, opts RunOpts, trace *NetTrace, commit bool) []float32 {
	a := net.take(base[0])
	defer net.give(a)
	net.run(a, base, from, opts, trace, commit)
	t := base[net.prog.feat]
	if a.changed[net.prog.feat] {
		t = a.vals[net.prog.feat]
	}
	return append([]float32(nil), t.Data()...)
}

// take returns an idle arena of the pool for img's batch size, with img
// as its input, or a new one. An idle arena of another batch size is
// dropped for it, so the pool holds at most one arena per forward that
// ran at once.
func (net *Network) take(img *tensor.Tensor) *arena {
	var a *arena
	net.poolMu.Lock()
	if k := len(net.pool); k > 0 {
		a, net.pool = net.pool[k-1], net.pool[:k-1]
	}
	net.poolMu.Unlock()
	if a == nil || a.batch != img.Shape().N {
		return net.prog.newArena(&net.prog.live, img)
	}
	a.vals[0] = img
	return a
}

// give returns a to the network's pool.
func (net *Network) give(a *arena) {
	a.vals[0] = nil
	net.poolMu.Lock()
	net.pool = append(net.pool, a)
	net.poolMu.Unlock()
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float32bits(v) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
