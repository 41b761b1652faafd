package snapea

import (
	"context"
	"testing"

	"snapea/internal/calib"
	"snapea/internal/dataset"
	"snapea/internal/tensor"
	"snapea/internal/train"
)

// profiledOptimizer prepares an optimizer far enough to inspect the
// profiling stage.
func profiledOptimizer(t *testing.T, eps float64) (*Optimizer, map[string][][]Candidate) {
	t.Helper()
	m := buildTestModel(t)
	samples := dataset.Generate(40, dataset.Config{Classes: 4, HW: m.InputShape.H, Seed: 31})
	calImgs := make([]*tensor.Tensor, 6)
	for i := range calImgs {
		calImgs[i] = samples[i].Image
	}
	calib.Calibrate(m, calImgs)
	imgs := make([]*tensor.Tensor, 8)
	lbls := make([]int, 8)
	for i := range imgs {
		imgs[i] = samples[20+i].Image
		lbls[i] = samples[20+i].Label
	}
	train.TrainHead(m.Head, train.Features(m, imgs), lbls, train.Config{})
	net := CompileExact(m)
	cfg := wideGrid(eps)
	cfg.SoftLoss = true
	o := NewOptimizer(net, m.Head, imgs, lbls, cfg)
	o.prepare()
	paramK, err := o.kernelProfilingPass(context.Background())
	if err != nil {
		t.Fatalf("kernelProfilingPass: %v", err)
	}
	return o, paramK
}

func TestProfilingCandidatesStructure(t *testing.T) {
	_, paramK := profiledOptimizer(t, 0.05)
	for node, kernels := range paramK {
		for k, cands := range kernels {
			if len(cands) == 0 {
				t.Fatalf("%s kernel %d: no candidates (exact fallback missing)", node, k)
			}
			last := cands[len(cands)-1]
			if !last.Param.IsExact() {
				t.Fatalf("%s kernel %d: last candidate not exact: %+v", node, k, last.Param)
			}
			// Predictive candidates sorted ascending by op, all cheaper
			// than exact.
			for i := 0; i < len(cands)-1; i++ {
				if cands[i].Param.IsExact() {
					t.Fatalf("%s kernel %d: exact candidate not last", node, k)
				}
				if cands[i].Op >= last.Op {
					t.Fatalf("%s kernel %d: predictive op %.1f >= exact %.1f", node, k, cands[i].Op, last.Op)
				}
				if i > 0 && cands[i].Op < cands[i-1].Op {
					t.Fatalf("%s kernel %d: candidates not sorted", node, k)
				}
			}
		}
	}
}

func TestProfilingRespectsBudget(t *testing.T) {
	// At a near-zero ε the mass budget is near zero, so (almost) no
	// predictive candidates survive.
	_, tight := profiledOptimizer(t, 1e-6)
	predictive := 0
	for _, kernels := range tight {
		for _, cands := range kernels {
			predictive += len(cands) - 1
		}
	}
	_, loose := profiledOptimizer(t, 0.2)
	loosePred := 0
	for _, kernels := range loose {
		for _, cands := range kernels {
			loosePred += len(cands) - 1
		}
	}
	if predictive > loosePred {
		t.Fatalf("tight budget admitted more candidates (%d) than loose (%d)", predictive, loosePred)
	}
	if loosePred == 0 {
		t.Fatal("loose budget admitted nothing — profiling broken")
	}
}

func TestSampleWindowsDeterministicAndBounded(t *testing.T) {
	o, _ := profiledOptimizer(t, 0.05)
	node := o.net.PlanOrder[0]
	a := o.sampleWindows(node)
	b := o.sampleWindows(node)
	if len(a) == 0 || len(a) > o.cfg.MaxWindows {
		t.Fatalf("sampled %d windows (max %d)", len(a), o.cfg.MaxWindows)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("window sampling not deterministic")
		}
		if a[i].img < 0 || a[i].img >= len(o.images) {
			t.Fatalf("window %d references image %d", i, a[i].img)
		}
	}
}

func TestTemperatureCalibrated(t *testing.T) {
	o, _ := profiledOptimizer(t, 0.05)
	if o.temp <= 0 {
		t.Fatalf("temperature %g", o.temp)
	}
	var mean float64
	for i, feat := range o.baseFeats {
		mean += train.ProbT(o.head, feat, o.labels[i], o.temp)
	}
	mean /= float64(len(o.baseFeats))
	if mean > 0.95 || mean < 0.4 {
		t.Fatalf("calibrated base probability %.3f still saturated/collapsed", mean)
	}
}

func TestLossScaleInvariance(t *testing.T) {
	o, _ := profiledOptimizer(t, 0.05)
	// Uniformly shrinking every feature by 2× must cost (almost)
	// nothing under the normalized surrogate.
	shrunk := make([][]float32, len(o.baseFeats))
	for i, f := range o.baseFeats {
		s := make([]float32, len(f))
		for j, v := range f {
			s[j] = v * 0.5
		}
		shrunk[i] = s
	}
	if l := o.loss(shrunk); l > 1e-6 {
		t.Fatalf("uniform shrinkage charged %.4f loss", l)
	}
	// Zeroing the features entirely must cost plenty.
	zeros := make([][]float32, len(o.baseFeats))
	for i, f := range o.baseFeats {
		zeros[i] = make([]float32, len(f))
	}
	if l := o.loss(zeros); l <= 0 {
		t.Fatalf("destroyed features charged %.4f", l)
	}
}

func TestEvalLayerRestoresPlan(t *testing.T) {
	o, paramK := profiledOptimizer(t, 0.1)
	node := o.net.PlanOrder[0]
	before := o.net.Plans[node]
	params := make(LayerParams, len(paramK[node]))
	for k := range params {
		params[k] = paramK[node][k][0].Param
	}
	o.evalLayer(node, params)
	if o.net.Plans[node] != before {
		t.Fatal("evalLayer leaked its temporary plan")
	}
}

func TestOptimizerSmallerEpsilonNotMoreAggressive(t *testing.T) {
	run := func(eps float64) int64 {
		o, _ := profiledOptimizer(t, eps)
		res := o.Run()
		_ = res
		trace := NewNetTrace()
		for _, img := range o.images {
			o.net.Forward(img, RunOpts{}, trace)
		}
		total, _ := trace.Totals()
		return total
	}
	tight := run(0.005)
	loose := run(0.2)
	if loose > tight {
		t.Fatalf("looser ε executed more MACs: %d > %d", loose, tight)
	}
}
