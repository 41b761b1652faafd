package snapea

import (
	"testing"

	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/tensor"
)

// buildTestModel returns the TinyNet toy model used across the package's
// integration tests.
func buildTestModel(t *testing.T) *models.Model {
	t.Helper()
	m, err := models.Build("tinynet", models.Options{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildAlexNetModel returns a reduced AlexNet, the smallest evaluated
// network with ReLU-fused fully-connected layers.
func buildAlexNetModel(t *testing.T) *models.Model {
	t.Helper()
	m, err := models.Build("alexnet", models.Options{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// freshExec is the program's oracle: an nn.Exec that runs net's conv and
// FC plans on fresh tensors, counted into trace when there is one, and
// leaves every other node to its layer's Forward.
func freshExec(net *Network, opts RunOpts, trace *NetTrace) nn.Exec {
	return func(node *nn.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool) {
		plan, in := net.Plans[node.Name], ins[0]
		if plan == nil {
			if plan = net.FCPlans[node.Name]; plan == nil {
				return nil, false
			}
			s := in.Shape()
			in = tensor.Wrap(tensor.Shape{N: s.N, C: s.C * s.H * s.W, H: 1, W: 1}, in.Data())
		}
		out, tr := plan.runTo(nil, in, opts, trace != nil)
		if trace != nil {
			trace.Add(tr)
		}
		return out, true
	}
}

// freshFrom is ForwardFrom's oracle: node from and every node that
// depends on it recomputed on fresh tensors, with no stop at a value
// that came out unchanged, and every other value read from base. It
// returns the feature.
func freshFrom(net *Network, base map[string]*tensor.Tensor, from string) []float32 {
	vals := make(map[string]*tensor.Tensor)
	exec := freshExec(net, RunOpts{}, nil)
	for _, n := range net.Model.Graph.Nodes() {
		stale := n.Name == from
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for j, name := range n.Inputs {
			v, ok := vals[name]
			if stale = stale || ok; !ok {
				v = base[name]
			}
			ins[j] = v
		}
		if !stale {
			continue
		}
		out, done := exec(n, ins)
		if !done {
			out = n.Layer.Forward(ins)
		}
		vals[n.Name] = out
	}
	if v, ok := vals[net.Model.FeatureNode]; ok {
		return v.Data()
	}
	return base[net.Model.FeatureNode].Data()
}
