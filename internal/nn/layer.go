// Package nn is a from-scratch CNN inference engine: the substrate the
// paper runs on top of (the paper used Caffe+cuDNN; see DESIGN.md for the
// substitution). It provides the layers modern CNNs are built from and a
// DAG graph executor able to express GoogLeNet-style inception topologies.
package nn

import (
	"fmt"

	"snapea/internal/tensor"
)

// Layer computes one graph node's output from its inputs. Layers are
// stateless with respect to Forward: calling Forward concurrently on
// different inputs is safe as long as the layer's parameters are not
// mutated.
type Layer interface {
	// Forward computes the layer output. Most layers take exactly one
	// input; Concat takes several.
	Forward(ins []*tensor.Tensor) *tensor.Tensor
	// OutShape reports the output shape for the given input shapes
	// without computing anything.
	OutShape(ins []tensor.Shape) tensor.Shape
}

// mustOutShape panics unless out has the shape want, which a layer's
// OutShape computed for the inputs its ForwardInto was given.
func mustOutShape(want tensor.Shape, out *tensor.Tensor) {
	if got := out.Shape(); got != want {
		panic(fmt.Sprintf("nn: output tensor %v, layer computes %v", got, want))
	}
}

// InputName is the reserved node name that refers to the graph input.
const InputName = "input"

// Node binds a layer into a graph with a unique name and named inputs.
type Node struct {
	Name   string
	Layer  Layer
	Inputs []string
	// slots are Inputs resolved at Add time to positions in a forward's
	// value table: 0 is the graph input, i+1 the output of node i.
	slots []int
}

// Graph is a directed acyclic network of layers. Nodes must be added in
// topological order (every input is either InputName or a previously
// added node); builders naturally do this. The zero value is not usable;
// construct with NewGraph.
type Graph struct {
	nodes  []*Node
	slot   map[string]int // node name (and InputName) → value-table slot
	output string
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{slot: map[string]int{InputName: 0}}
}

// Add appends a node. It panics on duplicate names or unknown inputs,
// which are programming errors in a model builder.
func (g *Graph) Add(name string, layer Layer, inputs ...string) {
	if name == InputName {
		panic("nn: node name 'input' is reserved")
	}
	if _, dup := g.slot[name]; dup {
		panic(fmt.Sprintf("nn: duplicate node %q", name))
	}
	if len(inputs) == 0 {
		panic(fmt.Sprintf("nn: node %q has no inputs", name))
	}
	n := &Node{Name: name, Layer: layer, Inputs: inputs, slots: make([]int, len(inputs))}
	for i, in := range inputs {
		slot, ok := g.slot[in]
		if !ok {
			panic(fmt.Sprintf("nn: node %q references unknown input %q (add nodes in topological order)", name, in))
		}
		n.slots[i] = slot
	}
	g.nodes = append(g.nodes, n)
	g.slot[name] = len(g.nodes)
	g.output = name // last added node is the default output
}

// SetOutput overrides which node's result Forward returns.
func (g *Graph) SetOutput(name string) {
	if g.Node(name) == nil {
		panic(fmt.Sprintf("nn: unknown output node %q", name))
	}
	g.output = name
}

// Output returns the name of the output node.
func (g *Graph) Output() string { return g.output }

// Nodes returns the nodes in topological order. The slice is shared; do
// not mutate it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Node returns the named node, or nil.
func (g *Graph) Node(name string) *Node {
	if slot := g.slot[name]; slot > 0 {
		return g.nodes[slot-1]
	}
	return nil
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Forward runs the whole graph on in and returns the output node's value.
func (g *Graph) Forward(in *tensor.Tensor) *tensor.Tensor {
	return g.ForwardTap(in, nil)
}

// ForwardTap runs the graph, invoking tap (if non-nil) with every node's
// output as it is produced. The tap must not mutate the tensor, which is
// shared with downstream nodes.
func (g *Graph) ForwardTap(in *tensor.Tensor, tap func(node string, out *tensor.Tensor)) *tensor.Tensor {
	return g.ForwardExec(in, tap, nil)
}

// Exec lets a caller substitute the execution of individual nodes; the
// SnaPEA engine uses this to run convolution layers with early
// termination while leaving the rest of the network untouched. Returning
// (nil, false) means "use the layer's own Forward".
type Exec func(node *Node, ins []*tensor.Tensor) (*tensor.Tensor, bool)

// ForwardExec runs the graph with an optional per-node executor override
// and an optional output tap.
func (g *Graph) ForwardExec(in *tensor.Tensor, tap func(node string, out *tensor.Tensor), exec Exec) *tensor.Tensor {
	return g.ForwardHooked(in, tap, exec, nil)
}

// MutateHook may modify a freshly computed node output in place, before
// the value is published to downstream nodes and to the tap. The
// fault-injection subsystem uses this to model soft errors in the
// activation buffers of the dense reference path; a nil hook costs one
// pointer test per node.
type MutateHook func(node *Node, out *tensor.Tensor)

// ForwardHooked runs the graph with an optional per-node executor
// override, an optional in-place output mutator, and an optional tap.
// The mutator runs before the tap, so taps (and therefore feature
// captures) observe the mutated values downstream layers consume.
func (g *Graph) ForwardHooked(in *tensor.Tensor, tap func(node string, out *tensor.Tensor), exec Exec, mutate MutateHook) *tensor.Tensor {
	vals := make([]*tensor.Tensor, len(g.nodes)+1)
	vals[0] = in
	ins := make([]*tensor.Tensor, 0, 4)
	for i, n := range g.nodes {
		ins = ins[:0]
		for _, slot := range n.slots {
			ins = append(ins, vals[slot])
		}
		var out *tensor.Tensor
		done := false
		if exec != nil {
			out, done = exec(n, ins)
		}
		if !done {
			out = n.Layer.Forward(ins)
		}
		if mutate != nil {
			mutate(n, out)
		}
		vals[i+1] = out
		if tap != nil {
			tap(n.Name, out)
		}
	}
	return vals[g.slot[g.output]]
}

// OutShape propagates an input shape through the graph and returns the
// output node's shape.
func (g *Graph) OutShape(in tensor.Shape) tensor.Shape {
	shapes := make([]tensor.Shape, len(g.nodes)+1)
	shapes[0] = in
	for i, n := range g.nodes {
		ins := make([]tensor.Shape, len(n.slots))
		for j, slot := range n.slots {
			ins[j] = shapes[slot]
		}
		shapes[i+1] = n.Layer.OutShape(ins)
	}
	return shapes[g.slot[g.output]]
}

func one(ins []*tensor.Tensor) *tensor.Tensor {
	if len(ins) != 1 {
		panic(fmt.Sprintf("nn: layer expects 1 input, got %d", len(ins)))
	}
	return ins[0]
}

func oneShape(ins []tensor.Shape) tensor.Shape {
	if len(ins) != 1 {
		panic(fmt.Sprintf("nn: layer expects 1 input, got %d", len(ins)))
	}
	return ins[0]
}
