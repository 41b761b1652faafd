package experiments

import (
	"snapea/internal/calib"
	"snapea/internal/dataset"
	"snapea/internal/models"
	"snapea/internal/prune"
	"snapea/internal/report"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// PruneRow is one sparsity point of the pruning-composition experiment.
type PruneRow struct {
	Sparsity  float64
	NegFrac   float64
	MACRed    float64 // SnaPEA exact-mode reduction on the pruned model
	DenseMACs int64
}

// PruningExperiment reproduces the paper's SqueezeNet argument in a
// controlled sweep: static magnitude pruning and SnaPEA's dynamic early
// termination compose — the exact mode keeps cutting a similar fraction
// of the (already smaller) MAC count as sparsity rises, because pruning
// is input-agnostic while SnaPEA's savings follow each input's negative
// windows.
func (s *Suite) PruningExperiment() []PruneRow {
	var rows []PruneRow
	for _, sparsity := range []float64{0, 0.3, 0.5} {
		// A fresh model per point: pruning mutates weights.
		m, err := models.Build("squeezenet", models.Options{Seed: s.Cfg.Seed, Classes: s.Cfg.Classes})
		if err != nil {
			panic(err)
		}
		prune.Convs(m, sparsity)
		samples := dataset.Generate(s.Cfg.CalibImages+4, dataset.Config{
			Classes: s.Cfg.Classes, HW: m.InputShape.H, Seed: s.Cfg.Seed + 1,
		})
		calImgs := make([]*tensor.Tensor, s.Cfg.CalibImages)
		for i := range calImgs {
			calImgs[i] = samples[i].Image
		}
		rep := calib.Calibrate(m, calImgs)

		net := snapea.CompileExact(m)
		trace := snapea.NewNetTrace()
		for _, smp := range samples[s.Cfg.CalibImages:] {
			net.Forward(smp.Image, snapea.RunOpts{}, trace)
		}
		_, dense := trace.Totals()
		rows = append(rows, PruneRow{
			Sparsity:  prune.Sparsity(m),
			NegFrac:   rep.Overall,
			MACRed:    trace.Reduction(),
			DenseMACs: dense,
		})
	}
	if s.Cfg.Out != nil {
		t := report.Table{
			Title:   "Pruning composition (SqueezeNet, exact mode): static pruning and SnaPEA stack",
			Headers: []string{"Weight Sparsity", "Neg. Fraction", "SnaPEA MAC Red."},
		}
		for _, r := range rows {
			t.Add(report.Pct(r.Sparsity), report.Pct(r.NegFrac), report.Pct(r.MACRed))
		}
		t.Render(s.Cfg.Out)
	}
	return rows
}

// QuantizationResult compares the float reference engine against the
// Q7.8 fixed-point PE datapath.
type QuantizationResult struct {
	Network string
	// OpsDeltaPct is |fixedOps − floatOps| / floatOps.
	OpsDeltaPct float64
	// OutputDisagreement is the fraction of windows whose zero/non-zero
	// decision differs between the datapaths.
	OutputDisagreement float64
}

// AblationQuantization runs one exact-mode image through both engines.
func (s *Suite) AblationQuantization() QuantizationResult {
	name := s.Cfg.Networks[0]
	p := s.Prepared(name)
	net := snapea.CompileExact(p.Model)
	img := p.TestImgs[0]

	res := QuantizationResult{Network: name}
	var floatOps, fixedOps float64
	var windows, disagree float64
	// Feed both engines the same exact-execution inputs: one forward,
	// every layer's input taken from it.
	cache := net.CacheAll(img, snapea.RunOpts{})
	for _, node := range net.PlanOrder {
		plan := net.Plans[node]
		in := cache[p.Model.Graph.Node(node).Inputs[0]]
		fo, ft := plan.Run(in, snapea.RunOpts{})
		xo, xt := plan.RunFixed(in, snapea.RunOpts{})
		floatOps += float64(ft.TotalOps)
		fixedOps += float64(xt.TotalOps)
		fd, xd := fo.Data(), xo.Data()
		for i := range fd {
			windows++
			if (fd[i] == 0) != (xd[i] == 0) {
				disagree++
			}
		}
	}
	if floatOps > 0 {
		d := fixedOps - floatOps
		if d < 0 {
			d = -d
		}
		res.OpsDeltaPct = d / floatOps
	}
	if windows > 0 {
		res.OutputDisagreement = disagree / windows
	}
	if s.Cfg.Out != nil {
		t := report.Table{
			Title:   "Ablation: Q7.8 fixed-point PE datapath vs float reference (" + name + ", exact mode)",
			Headers: []string{"Metric", "Value"},
		}
		t.Add("op-count delta", report.Pct(res.OpsDeltaPct))
		t.Add("zero-decision disagreement", report.Pct(res.OutputDisagreement))
		t.Render(s.Cfg.Out)
	}
	return res
}

// FCResult measures the FC early-termination extension.
type FCResult struct {
	Network string
	// ConvOnlyRed / WithFCRed are total MAC reductions (conv+FC MACs in
	// the denominator) without and with FC early termination.
	ConvOnlyRed float64
	WithFCRed   float64
	FCLayerRed  float64 // reduction within the ReLU-fused FC layers only
}

// AblationFC extends the exact mode to ReLU-fused fully-connected
// layers (the paper leaves FCs dense on the shared PEs) and reports what
// that buys.
func (s *Suite) AblationFC() FCResult {
	name := s.Cfg.Networks[0]
	p := s.Prepared(name)
	res := FCResult{Network: name}

	plain := snapea.CompileExact(p.Model)
	tr1 := snapea.NewNetTrace()
	withFC := snapea.CompileExact(p.Model)
	withFC.EnableFC()
	tr2 := snapea.NewNetTrace()
	for _, img := range p.TestImgs[:4] {
		plain.Forward(img, snapea.RunOpts{}, tr1)
		withFC.Forward(img, snapea.RunOpts{}, tr2)
	}
	t1, d1 := tr1.Totals()
	t2, d2 := tr2.Totals()
	// tr1 lacks FC layers entirely; use tr2's denominator for both so
	// the comparison is apples to apples.
	fcDense := d2 - d1
	res.ConvOnlyRed = 1 - float64(t1+fcDense)/float64(d2)
	res.WithFCRed = 1 - float64(t2)/float64(d2)
	var fcOps, fcDenseOps int64
	for node, tr := range tr2.Layers {
		if _, isConv := plain.Plans[node]; !isConv {
			fcOps += tr.TotalOps
			fcDenseOps += tr.DenseOps
		}
	}
	if fcDenseOps > 0 {
		res.FCLayerRed = 1 - float64(fcOps)/float64(fcDenseOps)
	}
	if s.Cfg.Out != nil {
		t := report.Table{
			Title:   "Extension: exact early termination for ReLU-fused FC layers (" + name + ")",
			Headers: []string{"Configuration", "MAC Reduction (conv+FC)"},
		}
		t.Add("convolutions only (paper)", report.Pct(res.ConvOnlyRed))
		t.Add("convolutions + FC layers", report.Pct(res.WithFCRed))
		t.Add("within FC layers alone", report.Pct(res.FCLayerRed))
		t.Render(s.Cfg.Out)
	}
	return res
}
