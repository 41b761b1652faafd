package snapea

import (
	"math"
	"sync"
	"testing"

	"snapea/internal/calib"
	"snapea/internal/dataset"
	"snapea/internal/models"
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

// checkPoolIdle fails unless every arena in net's pool holds no input
// and no two share storage: an arena pooled twice would run two forwards
// at once.
func checkPoolIdle(t *testing.T, label string, net *Network) {
	t.Helper()
	seen := make(map[*float32]bool)
	for _, a := range net.pool {
		if a.vals[0] != nil {
			t.Fatalf("%s: a pooled arena still holds its forward's input", label)
		}
		if seen[&a.data[0]] {
			t.Fatalf("%s: an arena of %d elements is pooled twice", label, len(a.data))
		}
		seen[&a.data[0]] = true
	}
}

// reused reports whether value id's slot in the live layout overlaps the
// slot of another value: a step writing it overwrites what that one held.
func reused(p *program, id int) bool {
	lo, hi := p.live.offs[id], p.live.offs[id]+p.shapes[id].Elems()
	for u := 1; u < len(p.shapes); u++ {
		if p.root(u) == u && u != p.root(id) && p.live.offs[u] < hi && lo < p.live.offs[u]+p.shapes[u].Elems() {
			return true
		}
	}
	return false
}

// TestWorksetMatchesFreshTensors drives the network's pooled arena dirty
// through ForwardFrom — from six layers a network, exact and first-candidate
// params, both images, on the exact network and on one whose every
// kernel speculates (N = 2, Th = 0) — on reduced SqueezeNet (plans, Concat, MaxPool2D,
// and a Dropout whose value is its input, a Concat output) and
// GoogLeNet (inception concats, pools, LRN). Every feature must equal,
// in Float32bits, the walk that allocates fresh tensors, and after
// every walk the pool must hold each arena once, none holding an input.
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
		exactCaches := make([]map[string]*tensor.Tensor, len(o.images))
		for i, img := range o.images {
			exactCaches[i] = net.CacheAll(img, RunOpts{})
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

		for _, mode := range []struct {
			name   string
			caches []map[string]*tensor.Tensor
			params map[string]LayerParams
		}{{"exact", exactCaches, exact}, {"predictive", predictive, spec}} {
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
						want := freshFrom(net, cache, node)
						got := net.ForwardFrom(cache, node, RunOpts{}, NewNetTrace())
						for j := range want {
							if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
								t.Fatalf("%s params %d image %d: feature[%d] = %v from the arena, %v fresh", label, pi, i, j, got[j], want[j])
							}
						}
						checkPoolIdle(t, label, net)
					}
				}
				net.install(node, old)
			}
		}

		// Each producer kind really writes over another value: some node
		// of each kind has a slot that another value's overlaps.
		wroteOver := map[string]bool{}
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
			if kind != "" && reused(net.prog, net.prog.ids[n.Name]) {
				wroteOver[kind] = true
			}
		}
		for _, kind := range []string{"plan", "concat", "maxpool"} {
			if !wroteOver[kind] {
				t.Fatalf("%s: no %s output shares a slot in the live layout", name, kind)
			}
		}
	}
}

// lastDrawn returns the last node in m's graph whose output a forward
// writes into its arena: a ReLU convolution or an intoLayer.
func lastDrawn(m *models.Model) string {
	last := ""
	for _, n := range m.Graph.Nodes() {
		conv, isConv := n.Layer.(*nn.Conv2D)
		if _, into := n.Layer.(intoLayer); into || isConv && conv.ReLU {
			last = n.Name
		}
	}
	return last
}

// TestSharedWorksetsMatchFreshTensors runs Forward and Feature from four
// goroutines at once on one Network, so the pool's arenas are shared,
// dirty with the other image's values, and raced under -race. It covers
// reduced TinyNet, AlexNet, VGG, GoogLeNet and SqueezeNet, each exact and
// with every kernel speculating (N = 2, Th = 0). Forward returns the
// deepest node with a slot (the graph's output is moved there), so an
// output that aliased an arena would show. Every output must equal, in
// Float32bits, the forward on fresh tensors, and an output and a feature
// taken before the 20 concurrent forwards must not change across them.
func TestSharedWorksetsMatchFreshTensors(t *testing.T) {
	const goroutines, rounds = 4, 5
	for _, name := range []string{"tinynet", "alexnet", "vggnet", "googlenet", "squeezenet"} {
		m, err := models.Build(name, models.Options{Seed: 123})
		if err != nil {
			t.Fatal(err)
		}
		images := imagesOf(dataset.Generate(2, dataset.Config{HW: m.InputShape.H, Seed: 17}))
		calib.Calibrate(m, images)
		m.Graph.SetOutput(lastDrawn(m))
		spec := make(map[string]LayerParams)
		for _, n := range m.Graph.Nodes() {
			if conv, ok := n.Layer.(*nn.Conv2D); ok && conv.ReLU {
				spec[n.Name] = make(LayerParams, conv.OutC)
				for k := range spec[n.Name] {
					spec[n.Name][k] = KernelParam{N: 2}
				}
			}
		}
		for _, mode := range []struct {
			name string
			net  *Network
		}{{"exact", CompileExact(m)}, {"predictive", Compile(m, spec, NegByMagnitude)}} {
			net, label := mode.net, name+"/"+mode.name
			wantOut := make([][]float32, len(images))
			wantFeat := make([][]float32, len(images))
			for i, img := range images {
				wantOut[i] = m.Graph.ForwardExec(img, func(node string, t *tensor.Tensor) {
					if node == m.FeatureNode {
						wantFeat[i] = t.Data()
					}
				}, freshExec(net, RunOpts{}, nil)).Data()
			}
			heldOut := net.Forward(images[0], RunOpts{}, nil).Data()
			heldFeat := net.Feature(images[0], RunOpts{}, nil)

			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						i := (g + r) % len(images)
						if r%2 == 0 {
							if got := net.Forward(images[i], RunOpts{}, nil).Data(); !sameBits(got, wantOut[i]) {
								t.Errorf("%s: Forward of image %d differs from fresh tensors", label, i)
								return
							}
						} else if got := net.Feature(images[i], RunOpts{}, nil); !sameBits(got, wantFeat[i]) {
							t.Errorf("%s: Feature of image %d differs from fresh tensors", label, i)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if !sameBits(heldOut, wantOut[0]) || !sameBits(heldFeat, wantFeat[0]) {
				t.Fatalf("%s: an output held across %d forwards changed", label, goroutines*rounds)
			}
			if len(net.pool) == 0 || len(net.pool) > goroutines {
				t.Fatalf("%s: %d arenas pooled after forwards by %d goroutines", label, len(net.pool), goroutines)
			}
			checkPoolIdle(t, label, net)
		}
	}
}
