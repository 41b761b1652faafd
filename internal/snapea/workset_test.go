package snapea

import (
	"math"
	"testing"

	"snapea/internal/nn"
	"snapea/internal/tensor"
)

// firstCandidates returns the configuration the local pass tries first
// for node: every kernel at its cheapest accepted profiling candidate.
func firstCandidates(o *Optimizer, node string) LayerParams {
	conv := o.net.Plans[node].Conv
	wins := o.gatherWindows(node, o.sampleWindows(node))
	outCg := conv.OutC / conv.Groups
	fnBudget := math.Min(0.5, fnBudgetScale*o.cfg.Epsilon)
	var s profileScratch
	params := make(LayerParams, conv.OutC)
	for k := range params {
		params[k] = o.profileKernel(node, k, wins[k/outCg], fnBudget, &s)[0].Param
	}
	return params
}

// checkWorksetIdle fails unless ws holds no drawn array and its free
// arrays are pairwise distinct: an array returned twice would be drawn
// for two live tensors at once.
func checkWorksetIdle(t *testing.T, label string, ws *workset) {
	t.Helper()
	if len(ws.drawn) != 0 {
		t.Fatalf("%s: %d arrays still drawn after ForwardFrom", label, len(ws.drawn))
	}
	seen := make(map[*float32]bool)
	for _, list := range ws.free {
		for _, d := range list {
			if seen[&d[0]] {
				t.Fatalf("%s: an array of %d elements is free twice", label, len(d))
			}
			seen[&d[0]] = true
		}
	}
}

// TestWorksetMatchesFreshTensors drives one workset dirty through
// ForwardFrom — from six layers a network, exact and first-candidate
// params, both images, on the exact network and on one whose every
// kernel speculates (N = 2, Th = 0) — on reduced SqueezeNet (plans, Concat, MaxPool2D,
// and a Dropout whose value is its input, a drawn Concat output) and
// GoogLeNet (inception concats, pools, LRN). Every feature must equal,
// in Float32bits, the walk that allocates fresh tensors, and after
// every walk the workset must hold each array once, none drawn.
func TestWorksetMatchesFreshTensors(t *testing.T) {
	for _, name := range []string{"squeezenet", "googlenet"} {
		o := calibratedOptimizer(t, name, OptConfig{Epsilon: 0.03, SoftLoss: true})
		net := o.net
		exact := make(map[string]LayerParams, len(net.PlanOrder))
		spec := make(map[string]LayerParams, len(net.PlanOrder))
		for _, node := range net.PlanOrder {
			exact[node] = AllExact(net.Plans[node].Conv.OutC)
			spec[node] = make(LayerParams, net.Plans[node].Conv.OutC)
			for k := range spec[node] {
				spec[node][k] = KernelParam{N: 2}
			}
		}
		for _, node := range net.PlanOrder {
			o.setPlan(node, spec[node])
		}
		predictive := make([]map[string]*tensor.Tensor, len(o.images))
		for i, img := range o.images {
			predictive[i] = net.CacheAll(img, RunOpts{})
		}

		step := len(net.PlanOrder) / 5 // six layers a network
		first := make(map[string]LayerParams)
		for li := 0; li < len(net.PlanOrder); li += step {
			node := net.PlanOrder[li]
			first[node] = firstCandidates(o, node)
		}

		var ws workset
		walks := 0
		for _, mode := range []struct {
			name   string
			caches []map[string]*tensor.Tensor
			params map[string]LayerParams
		}{{"exact", o.caches, exact}, {"predictive", predictive, spec}} {
			for _, node := range net.PlanOrder {
				o.setPlan(node, mode.params[node])
			}
			for li := 0; li < len(net.PlanOrder); li += step {
				node := net.PlanOrder[li]
				old := net.Plans[node]
				for pi, params := range []LayerParams{exact[node], first[node]} {
					o.setPlan(node, params)
					for i, cache := range mode.caches {
						label := name + "/" + mode.name + "/" + node
						want := net.ForwardFrom(cache, node, RunOpts{}, NewNetTrace(), nil)
						got := net.ForwardFrom(cache, node, RunOpts{}, NewNetTrace(), &ws)
						for j := range want {
							if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
								t.Fatalf("%s params %d image %d: feature[%d] = %v from the workset, %v fresh", label, pi, i, j, got[j], want[j])
							}
						}
						checkWorksetIdle(t, label, &ws)
						walks++
					}
				}
				net.Plans[node] = old
			}
		}

		// Each producer kind really drew: some node of each kind has its
		// element count among the free arrays.
		drewKind := map[string]bool{}
		for _, n := range net.Model.Graph.Nodes() {
			kind := ""
			switch n.Layer.(type) {
			case nn.Concat:
				kind = "concat"
			case *nn.MaxPool2D:
				kind = "maxpool"
			default:
				if net.Plans[n.Name] != nil {
					kind = "plan"
				}
			}
			if kind != "" && len(ws.free[o.caches[0][n.Name].Shape().Elems()]) > 0 {
				drewKind[kind] = true
			}
		}
		for _, kind := range []string{"plan", "concat", "maxpool"} {
			if !drewKind[kind] {
				t.Fatalf("%s: no %s output was drawn from the workset in %d walks", name, kind, walks)
			}
		}
	}
}
