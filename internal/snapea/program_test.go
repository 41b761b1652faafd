package snapea

import (
	"fmt"
	"reflect"
	"testing"

	"snapea/internal/calib"
	"snapea/internal/dataset"
	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// calibratedModel returns a reduced model calibrated on two generated
// images, and the images.
func calibratedModel(t *testing.T, name string) (*models.Model, []*tensor.Tensor) {
	t.Helper()
	m, err := models.Build(name, models.Options{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	images := imagesOf(dataset.Generate(2, dataset.Config{HW: m.InputShape.H, Seed: 17}))
	calib.Calibrate(m, images)
	return m, images
}

// specPlan is the node's plan recompiled with every kernel speculating
// (N = 2, Th = 0), or with N one below a smaller kernel's size.
func specPlan(p *LayerPlan) *LayerPlan {
	params := make(LayerParams, p.Conv.OutC)
	for k := range params {
		params[k] = KernelParam{N: min(2, p.Conv.KernelSize()-1)}
	}
	return p.recompile(nil, params, NegByMagnitude)
}

// TestSubsetWalkOnLiveLayout proves that a stale-subset walk may run on
// the full-order slot plan. On every reduced model, exact, for every
// node as `from` — a plan recompiled to speculate, so its value really
// changes, or any other node as it is — the walk in one pooled arena,
// dirty from every walk before it, must give the feature a fresh-tensor
// walk of from's whole downstream gives, in Float32bits. On every model
// with a Dropout some walk must have changed the Dropout's input, so the
// alias step runs on a changed value.
func TestSubsetWalkOnLiveLayout(t *testing.T) {
	for _, name := range models.Names() {
		m, images := calibratedModel(t, name)
		net := CompileExact(m)
		cache := net.CacheAll(images[0], RunOpts{})
		base := make([]*tensor.Tensor, len(net.prog.shapes))
		for node, id := range net.prog.ids {
			base[id] = cache[node]
		}
		drop, dropChanged := 0, false
		for id, st := range net.prog.steps {
			if st.alias {
				drop = id + 1
			}
		}
		for _, n := range m.Graph.Nodes() {
			old := net.Plans[n.Name]
			if old != nil {
				net.install(n.Name, specPlan(old))
			}
			want := freshFrom(net, cache, n.Name)
			a := net.take(images[0])
			net.run(a, base, net.prog.ids[n.Name], RunOpts{}, nil, false)
			got := base[net.prog.feat]
			if a.changed[net.prog.feat] {
				got = a.vals[net.prog.feat]
			}
			if !sameBits(got.Data(), want) {
				t.Fatalf("%s: the walk from %s on the live layout differs from fresh tensors", name, n.Name)
			}
			dropChanged = dropChanged || drop > 0 && a.changed[net.prog.steps[drop-1].ins[0]]
			net.give(a)
			if old != nil {
				net.install(n.Name, old)
			}
		}
		if drop > 0 && !dropChanged {
			t.Fatalf("%s: no walk changed the Dropout's input", name)
		}
		if len(net.pool) != 1 {
			t.Fatalf("%s: %d arenas pooled after serial walks, want 1", name, len(net.pool))
		}
	}
}

// liveExtents returns, per value id of p, the first and last step its
// storage is live in: its own step through the last step that reads it
// or an alias of it, and through the end for the output and the feature.
func liveExtents(p *program) (def, end []int) {
	def, end = make([]int, len(p.shapes)), make([]int, len(p.shapes))
	for i, st := range p.steps {
		def[i+1], end[i+1] = i, i
		for _, in := range st.ins {
			end[p.root(in)] = i
		}
	}
	end[p.root(p.out)], end[p.root(p.feat)] = len(p.steps), len(p.steps)
	return def, end
}

// TestArenaWithinPeakLive holds every model's live layout, reduced and
// Full (laid out from shapes alone, no weights filled and no forward),
// to at most 1.25× its peak-live size: the most storage the values live
// at any one step hold. It checks that values live at once never share
// a slot, and logs the table DESIGN.md quotes.
func TestArenaWithinPeakLive(t *testing.T) {
	kb := func(elems int) string {
		if b := float64(4 * elems); b >= 2e6 {
			return fmt.Sprintf("%.1f MB", b/1e6)
		} else {
			return fmt.Sprintf("%.0f KB", b/1e3)
		}
	}
	for _, scale := range []models.Scale{models.Reduced, models.Full} {
		for _, name := range models.Names() {
			m, err := models.Build(name, models.Options{Scale: scale, Classes: 1000, SkipInit: scale == models.Full})
			if err != nil {
				t.Fatal(err)
			}
			p := newProgram(m)
			def, end := liveExtents(p)
			peak := 0
			for i := range p.steps {
				live := 0
				for v := 1; v < len(p.shapes); v++ {
					if p.root(v) == v && def[v] <= i && i <= end[v] {
						live += p.shapes[v].Elems()
					}
				}
				peak = max(peak, live)
			}
			for u := 1; u < len(p.shapes); u++ {
				for v := u + 1; v < len(p.shapes); v++ {
					if p.root(u) != u || p.root(v) != v || def[u] > end[v] || def[v] > end[u] {
						continue
					}
					if lu, lv := p.live.offs[u], p.live.offs[v]; lu < lv+p.shapes[v].Elems() && lv < lu+p.shapes[u].Elems() {
						t.Fatalf("%s %s: values %d and %d are live at once in overlapping slots", scale, name, u, v)
					}
				}
			}
			t.Logf("| %s | %s | %s / %s / %s | %.2f× |", name, scale, kb(p.sum.size), kb(peak), kb(p.live.size), float64(p.live.size)/float64(peak))
			if 4*p.live.size > 5*peak {
				t.Errorf("%s %s: arena %d elements, peak-live %d: over 1.25×", scale, name, p.live.size, peak)
			}
		}
	}
}

// TestProgramWorkerInvariance runs the program — Forward with a trace,
// Feature, CacheAll, and ForwardFrom every fourth plan with it
// speculating — on reduced SqueezeNet, exact and predictive, and
// GoogLeNet, predictive, at every worker count, one pool of arenas
// throughout. Every output, trace and cached value must equal the serial
// run's.
func TestProgramWorkerInvariance(t *testing.T) {
	defer parallel.SetLimit(0)
	type result struct {
		out, feat []float32
		trace     map[string]*LayerTrace
		cache     map[string][]float32
		from      [][]float32
	}
	for _, c := range []struct {
		name  string
		modes []string
	}{{"squeezenet", []string{"exact", "predictive"}}, {"googlenet", []string{"predictive"}}} {
		name := c.name
		m, images := calibratedModel(t, name)
		for _, mode := range c.modes {
			net := CompileExact(m)
			if mode == "predictive" {
				net = Compile(m, speculateAll(m), NegByMagnitude)
			}
			spec := make(map[string]*LayerPlan)
			for li := 0; li < len(net.PlanOrder); li += 4 {
				spec[net.PlanOrder[li]] = specPlan(net.Plans[net.PlanOrder[li]])
			}
			runAll := func() result {
				var r result
				tr := NewNetTrace()
				r.out = net.Forward(images[1], RunOpts{CollectWindows: true}, tr).Data()
				r.trace = tr.Layers
				r.feat = net.Feature(images[0], RunOpts{}, nil)
				cache := net.CacheAll(images[0], RunOpts{})
				r.cache = make(map[string][]float32, len(cache))
				for node, v := range cache {
					r.cache[node] = v.Data()
				}
				for li := 0; li < len(net.PlanOrder); li += 4 {
					node := net.PlanOrder[li]
					old := net.Plans[node]
					net.install(node, spec[node])
					r.from = append(r.from, net.ForwardFrom(cache, node, RunOpts{}, nil))
					net.install(node, old)
				}
				return r
			}
			parallel.SetLimit(1)
			ref := runAll()
			for _, workers := range invarianceWorkerCounts() {
				parallel.SetLimit(workers)
				if got := runAll(); !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s/%s workers=%d: the program's results diverge from the serial run", name, mode, workers)
				}
			}
		}
	}
}

// TestDropoutIsAnAliasStep: a Dropout compiles to an alias step, and its
// value in every layout is its input's slot.
func TestDropoutIsAnAliasStep(t *testing.T) {
	m, err := models.Build("squeezenet", models.Options{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	p := newProgram(m)
	aliases := 0
	for i, st := range p.steps {
		_, drop := st.node.Layer.(nn.Dropout)
		if drop != st.alias {
			t.Fatalf("%s: alias %v, Dropout %v", st.node.Name, st.alias, drop)
		}
		if st.alias {
			aliases++
			for _, l := range []layout{p.live, p.sum} {
				if l.offs[i+1] != l.offs[st.ins[0]] {
					t.Fatalf("%s: slot %d, its input's %d", st.node.Name, l.offs[i+1], l.offs[st.ins[0]])
				}
			}
		}
	}
	if aliases == 0 {
		t.Fatal("squeezenet compiled no alias step")
	}
}
