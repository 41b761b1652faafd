package snapea

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"snapea/internal/calib"
	"snapea/internal/dataset"
	"snapea/internal/metrics"
	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/train"
)

// calibratedOptimizer returns an optimizer, prepared, over a reduced
// model calibrated on two generated images, with those images as its
// optimization set. The head is the model's untrained one: the shortcut
// oracles compare two ways of computing the same thing, not accuracy.
func calibratedOptimizer(t *testing.T, name string, cfg OptConfig) *Optimizer {
	t.Helper()
	m, err := models.Build(name, models.Options{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	samples := dataset.Generate(2, dataset.Config{HW: m.InputShape.H, Seed: 17})
	calib.Calibrate(m, imagesOf(samples))
	o := NewOptimizer(CompileExact(m), m.Head, imagesOf(samples), labelsOf(samples), cfg)
	o.prepare()
	return o
}

// profileKernelOracle is profileKernel as a per-(n, th) loop: every
// threshold re-gathers every window and runs Op with rk.Th set.
func profileKernelOracle(o *Optimizer, node string, k int, wins []float32, fnBudget float64) []Candidate {
	conv := o.net.Plans[node].Conv
	ksz := conv.KernelSize()
	nWin := len(wins) / ksz
	gath := make([]float32, ksz)
	w := conv.Kernel(k)
	bias := conv.Bias[k]
	rkE := Reorder(w, Exact, o.net.NegOrder)
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
		rk := Reorder(w, KernelParam{N: n}, o.net.NegOrder)
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
				accepted = append(accepted, Candidate{Param: KernelParam{Th: th, N: n}, Op: ops, FN: fnRate})
			}
		}
	}
	sort.Slice(accepted, func(a, b int) bool { return accepted[a].Op < accepted[b].Op })
	return append(accepted, Candidate{Param: Exact, Op: exactOps})
}

// TestProfileKernelMatchesPerThresholdOp holds profileKernel, which runs
// each window once per N and reads every threshold off the float32
// prefix and the past-prefix count, to the per-(N, Th) Op loop on every
// kernel of every layer of calibrated reduced SqueezeNet, under the
// default grid and the wide one. One scratch serves all kernels, so its
// reuse across kernel sizes is covered too.
func TestProfileKernelMatchesPerThresholdOp(t *testing.T) {
	for _, cfg := range []OptConfig{{Epsilon: 0.03, SoftLoss: true}, wideGrid(0.05)} {
		o := calibratedOptimizer(t, "squeezenet", cfg)
		fnBudget := math.Min(0.5, fnBudgetScale*o.cfg.Epsilon)
		var s profileScratch
		accepted := 0
		for _, node := range o.net.PlanOrder {
			conv := o.net.Plans[node].Conv
			wins := o.gatherWindows(node, o.sampleWindows(node))
			outCg := conv.OutC / conv.Groups
			for k := 0; k < conv.OutC; k++ {
				got := o.profileKernel(node, k, wins[k/outCg], fnBudget, &s)
				want := profileKernelOracle(o, node, k, wins[k/outCg], fnBudget)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s kernel %d: candidates\n  got  %+v\n  want %+v", node, k, got, want)
				}
				accepted += len(got) - 1
			}
		}
		if accepted == 0 {
			t.Fatal("no speculative candidate accepted; the oracle has no teeth")
		}
	}
}

// evalFullOracle measures the loss and the hard accuracy of the
// network's current plans by a whole forward per image.
func evalFullOracle(o *Optimizer) (loss, acc float64) {
	feats := make([][]float32, len(o.images))
	for i, img := range o.images {
		feats[i] = o.net.Feature(img, RunOpts{}, nil)
	}
	return o.loss(feats), train.Accuracy(o.head, feats, o.labels)
}

// TestGlobalMoveMatchesFullForward walks the global pass's moves — the
// first 8 adjustParam offers, not only those the ε budget needs — on
// the branching SqueezeNet graph and on the pipeline's TinyNet, and
// after each holds the incremental evaluation to a whole forward: the
// same loss and accuracy, and caches equal node for node, bit for bit,
// to CacheAll under the new plans. The moves are drawn from the settled
// choices, as the pass draws them. The caches are prepare's arenas,
// recomputed in place by recache and written through by every move.
func TestGlobalMoveMatchesFullForward(t *testing.T) {
	ctx := context.Background()
	m, optImgs, optLabels, _, _ := pipeline(t, 31)
	tiny := NewOptimizer(CompileExact(m), m.Head, optImgs, optLabels, wideGrid(0.05))
	tiny.prepare()
	for _, o := range []*Optimizer{
		tiny,
		calibratedOptimizer(t, "squeezenet", OptConfig{Epsilon: 0.03, SoftLoss: true, T: 1}),
	} {
		name := o.net.Model.Name
		paramK, err := o.kernelProfilingPass(ctx)
		if err != nil {
			t.Fatal(err)
		}
		paramL, err := o.localOptimizationPass(ctx, paramK)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.settle(ctx, paramL); err != nil { // the plans and caches are still exact
			t.Fatal(err)
		}
		current := make(map[string]LayerChoice, len(paramL))
		remaining := make(map[string][]LayerChoice, len(paramL))
		for node, choices := range paramL {
			current[node] = choices[0]
			remaining[node] = append([]LayerChoice(nil), choices[1:]...)
			o.setPlan(node, choices[0].Params)
		}
		o.recache()
		moves := 0
		for moves < 8 {
			node, idx, ok := o.adjustParam(current, remaining)
			if !ok {
				break
			}
			current[node] = remaining[node][idx]
			remaining[node] = append(remaining[node][:idx:idx], remaining[node][idx+1:]...)
			o.setPlan(node, current[node].Params)
			loss, acc := o.evalMove(node)
			wantLoss, wantAcc := evalFullOracle(o)
			if loss != wantLoss || acc != wantAcc {
				t.Fatalf("%s move %d (%s): loss %v acc %v, whole forward %v %v", name, moves, node, loss, acc, wantLoss, wantAcc)
			}
			for i, img := range o.images {
				full := o.net.CacheAll(img, RunOpts{})
				if len(o.net.prog.ids) != len(full) {
					t.Fatalf("%s move %d: image %d cache has %d nodes, want %d", name, moves, i, len(o.net.prog.ids), len(full))
				}
				for n, v := range full {
					if !sameBits(o.caches[i].vals[o.net.prog.ids[n]].Data(), v.Data()) {
						t.Fatalf("%s move %d (%s): image %d node %s differs from a whole forward", name, moves, node, i, n)
					}
				}
			}
			moves++
		}
		if moves == 0 {
			t.Fatalf("%s: the global pass offered no move; the oracle has no teeth", name)
		}
	}
}

// TestForwardFromStopsAtUnchangedValue re-executes every layer of the
// branching graphs under its own exact plan: the layer's output equals
// the cache's, so ForwardFrom must return the cached feature and run no
// plan but the layer's own.
func TestForwardFromStopsAtUnchangedValue(t *testing.T) {
	for _, name := range []string{"squeezenet", "googlenet"} {
		m, err := models.Build(name, models.Options{Seed: 123})
		if err != nil {
			t.Fatal(err)
		}
		net := CompileExact(m)
		cache := net.CacheAll(nonNegInput(m.InputShape, 9), RunOpts{})
		want := cache[m.FeatureNode].Data()
		for _, node := range net.PlanOrder {
			var got []float32
			ran := plansRun(net, func() { got = net.ForwardFrom(cache, node, RunOpts{}, nil) })
			if ran != 1 {
				t.Fatalf("%s: ForwardFrom(%s) with unchanged params ran %d plans, want 1", name, node, ran)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s: ForwardFrom(%s) with unchanged params changed the feature", name, node)
			}
		}
		// A non-plan node (pooling, concat) with unchanged inputs stops
		// the walk the same way.
		for _, n := range m.Graph.Nodes() {
			if net.Plans[n.Name] != nil || n.Name == nn.InputName {
				continue
			}
			if ran := plansRun(net, func() { net.ForwardFrom(cache, n.Name, RunOpts{}, nil) }); ran != 0 {
				t.Fatalf("%s: ForwardFrom(%s) with unchanged inputs ran %d plans, want 0", name, n.Name, ran)
			}
		}
	}
}

// evalLayerOracle is the eager local pass's evaluation: node's
// configuration compiled and installed, and the suffix forward run
// counted from node, whose trace gives the op total.
func evalLayerOracle(o *Optimizer, node string, params LayerParams) (op, loss float64) {
	old := o.net.Plans[node]
	o.spare[node] = old.recompile(o.spare[node], params, o.net.NegOrder)
	o.net.install(node, o.spare[node])
	defer o.net.install(node, old)
	id := o.net.prog.ids[node]
	feats := make([][]float32, len(o.images))
	var ops int64
	for i := range o.images {
		tr := NewNetTrace()
		feats[i] = o.net.forwardFrom(o.caches[i].vals, id, RunOpts{}, tr, false)
		ops += tr.Layers[node].TotalOps
	}
	return float64(ops), o.loss(feats)
}

// localPassOracle is the eager LOCALOPTIMIZATIONPASS: every one of a
// layer's T configurations scored, those within ε sorted by op with
// sort.Slice, the exact one last. It also returns how many suffix
// evaluations it ran, and how many the lazy pass needs on the same
// numbers: per layer, the configurations in (Op, t) order up to the
// first within ε, or all of them when none is.
func localPassOracle(o *Optimizer, paramK map[string][][]Candidate) (paramL map[string][]LayerChoice, eager, lazy int) {
	paramL = make(map[string][]LayerChoice, len(o.net.PlanOrder))
	for _, node := range o.net.PlanOrder {
		kands := paramK[node]
		var all, choices []LayerChoice
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
			op, loss := evalLayerOracle(o, node, params)
			all = append(all, LayerChoice{Params: params, Op: op, Err: loss})
			if loss <= o.cfg.Epsilon {
				choices = append(choices, all[len(all)-1])
			}
		}
		eager += len(all)
		sort.SliceStable(all, func(a, b int) bool { return all[a].Op < all[b].Op })
		for _, c := range all {
			lazy++
			if c.Err <= o.cfg.Epsilon {
				break
			}
		}
		sort.Slice(choices, func(a, b int) bool { return choices[a].Op < choices[b].Op })
		paramL[node] = append(choices, LayerChoice{Params: AllExact(len(kands)), Op: o.exactOps[node], Err: 0})
	}
	return paramL, eager, lazy
}

// tuneWith runs Algorithm 1's passes on a prepared optimizer as RunCtx
// does, with local as its local pass. With reverse, every kernel's
// speculative candidates reach the local pass in descending op order, so
// a layer's configurations in t order are not in (Op, t) order.
func tuneWith(t *testing.T, o *Optimizer, reverse bool, local func(*Optimizer, map[string][][]Candidate) map[string][]LayerChoice) *Result {
	t.Helper()
	ctx := context.Background()
	paramK, err := o.kernelProfilingPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if reverse {
		for _, kands := range paramK {
			for _, list := range kands {
				slices.Reverse(list[:len(list)-1])
			}
		}
	}
	res, err := o.globalOptimizationPass(ctx, local(o, paramK))
	if err != nil {
		t.Fatal(err)
	}
	res.ParamK, res.BaseAcc = paramK, o.baseAcc
	return res
}

// TestLazyLocalPassMatchesEager holds the two-step local pass — layer
// ops first, the suffix forward in (Op, t) order up to the first
// configuration within ε, the rest scored only when the global pass
// moves — to the eager pass that scores every configuration: the same
// encoded result and the same params bytes. Reduced SqueezeNet and
// AlexNet under the suite's configuration end at their start; TinyNet
// under the wide grid moves, so it settles first. Each runs once more
// with its candidates reversed, where (Op, t) order is not t order. On
// SqueezeNet opt.local_evals must count the suffix evaluations the
// oracle's numbers imply, fewer than the eager pass runs.
func TestLazyLocalPassMatchesEager(t *testing.T) {
	suite := OptConfig{Epsilon: 0.03, SoftLoss: true}
	m, optImgs, optLabels, _, _ := pipeline(t, 31)
	tiny := func() *Optimizer {
		o := NewOptimizer(CompileExact(m), m.Head, optImgs, optLabels, wideGrid(0.05))
		o.prepare()
		return o
	}
	lazyLocal := func(o *Optimizer, paramK map[string][][]Candidate) map[string][]LayerChoice {
		paramL, err := o.localOptimizationPass(context.Background(), paramK)
		if err != nil {
			t.Fatal(err)
		}
		return paramL
	}
	for _, tc := range []struct {
		name  string
		build func() *Optimizer
		moves bool
	}{
		{"squeezenet", func() *Optimizer { return calibratedOptimizer(t, "squeezenet", suite) }, false},
		{"alexnet", func() *Optimizer { return calibratedOptimizer(t, "alexnet", suite) }, false},
		{"tinynet", tiny, true},
	} {
		for _, reverse := range []bool{false, true} {
			var eager, lazy int
			want := tuneWith(t, tc.build(), reverse, func(o *Optimizer, paramK map[string][][]Candidate) map[string][]LayerChoice {
				var paramL map[string][]LayerChoice
				paramL, eager, lazy = localPassOracle(o, paramK)
				return paramL
			})
			metrics.Reset()
			metrics.Enable()
			o := tc.build()
			o.SetLog(func(string, ...any) {}) // with metrics on, no logger prints progress
			got := tuneWith(t, o, reverse, lazyLocal)
			metrics.Disable()
			evals := 0
			for _, node := range o.net.PlanOrder {
				evals += int(metrics.C("opt.local_evals", metrics.Labels{"layer": node}).Value())
			}
			metrics.Reset()
			t.Logf("%s reverse=%v: %d global moves; %d suffix evaluations, eager %d, lazy local pass %d",
				tc.name, reverse, got.GlobalIters, evals, eager, lazy)
			gotEnc, _ := json.Marshal(got)
			wantEnc, _ := json.Marshal(want)
			if string(gotEnc) != string(wantEnc) {
				t.Fatalf("%s reverse=%v: result differs from the eager local pass's:\n got %s\nwant %s", tc.name, reverse, gotEnc, wantEnc)
			}
			gotParams, err := got.File(tc.name, o.cfg.Epsilon).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			wantParams, _ := want.File(tc.name, o.cfg.Epsilon).Marshal()
			if string(gotParams) != string(wantParams) {
				t.Fatalf("%s reverse=%v: params bytes differ from the eager local pass's", tc.name, reverse)
			}
			if reverse {
				continue
			}
			if moved := got.GlobalIters > 0; moved != tc.moves {
				t.Fatalf("%s: %d global moves; the case needs moves=%v", tc.name, got.GlobalIters, tc.moves)
			}
			if tc.name == "squeezenet" && (evals != lazy || evals >= eager) {
				t.Fatalf("squeezenet: opt.local_evals %d, want the %d the oracle implies, below its %d", evals, lazy, eager)
			}
		}
	}
}
