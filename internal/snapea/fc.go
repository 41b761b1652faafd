package snapea

import (
	"fmt"

	"snapea/internal/nn"
	"snapea/internal/tensor"
)

// NewFCPlan compiles a ReLU-fused fully-connected layer for SnaPEA's
// exact early termination. The paper runs FC layers on the same PEs but
// leaves them dense; the identical algebra applies, though — an FC
// neuron is a 1×1 convolution window over the flattened input — so the
// plan is a LayerPlan over a {In,1,1} input whose convolution aliases
// the FC's weights and bias (the AblationFC bench quantifies what the
// paper left on the table; FC layers are ≈1% of CNN MACs, so the paper's
// choice costs little). Run takes the input flattened to {N,In,1,1}.
//
// The FC must have a fused ReLU: without it a negative partial sum
// proves nothing about the output that downstream layers will see.
func NewFCPlan(node string, fc *nn.FC, negOrder NegOrder) *LayerPlan {
	if !fc.ReLU {
		panic(fmt.Sprintf("snapea: FC plan for %q requires a fused ReLU", node))
	}
	conv := &nn.Conv2D{
		InC: fc.In, OutC: fc.Out, KH: 1, KW: 1, StrideH: 1, StrideW: 1,
		Groups: 1, ReLU: true, Weights: fc.Weights, Bias: fc.Bias,
	}
	return NewLayerPlan(node, conv, tensor.Shape{N: 1, C: fc.In, H: 1, W: 1}, nil, negOrder)
}

// EnableFC extends a compiled network with exact early termination for
// every ReLU-fused fully-connected layer (the classifier head has no
// ReLU and stays dense). Traces from these layers appear under their
// node names like convolution traces.
func (net *Network) EnableFC() {
	if net.FCPlans != nil {
		return
	}
	net.FCPlans = make(map[string]*LayerPlan)
	for _, n := range net.Model.Graph.Nodes() {
		fc, ok := n.Layer.(*nn.FC)
		if !ok || !fc.ReLU {
			continue
		}
		plan := NewFCPlan(n.Name, fc, net.NegOrder)
		net.FCPlans[n.Name] = plan
		st := &net.prog.steps[net.prog.ids[n.Name]-1]
		st.plan, st.flat = plan, true
	}
}
