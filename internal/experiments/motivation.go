package experiments

import (
	"sort"

	"snapea/internal/calib"
	"snapea/internal/models"
	"snapea/internal/report"
	"snapea/internal/tensor"
)

// Fig1Row is one bar of Figure 1: the fraction of activation-function
// inputs that are negative, per network.
type Fig1Row struct {
	Network  string
	Paper    float64
	Measured float64
}

// Fig1Result reproduces Figure 1 including the Average bar.
type Fig1Result struct {
	Rows    []Fig1Row
	Average float64
}

// Fig1 measures the negative pre-activation fraction of every evaluated
// network (plus LeNet, as in the paper) on the held-out test images.
func (s *Suite) Fig1() Fig1Result {
	nets := append([]string{}, s.Cfg.Networks...)
	nets = append(nets, "lenet")
	var res Fig1Result
	var sum float64
	for _, name := range nets {
		p := s.Prepared(name)
		_, frac := calib.MeasureNegFrac(p.Model, p.TestImgs)
		res.Rows = append(res.Rows, Fig1Row{Network: name, Paper: p.Model.PaperNegFrac, Measured: frac})
		sum += frac
	}
	res.Average = sum / float64(len(res.Rows))

	if s.Cfg.Out != nil {
		t := report.Table{
			Title:   "Figure 1: fraction of activation inputs that are negative",
			Headers: []string{"Network", "Paper", "Measured"},
		}
		for _, r := range res.Rows {
			t.Add(r.Network, report.Pct(r.Paper), report.Pct(r.Measured))
		}
		t.Add("average", "-", report.Pct(res.Average))
		t.Render(s.Cfg.Out)
	}
	return res
}

// Fig2Result quantifies Figure 2's qualitative claim: the spatial
// distribution of zero activations in an intermediate layer varies
// across input images.
type Fig2Result struct {
	Network string
	Layer   string
	// ZeroFracs is the per-image zero fraction of the layer output.
	ZeroFracs []float64
	// MeanDisagreement is the mean pairwise fraction of positions where
	// two images' zero masks differ; ExpectedIfIndependent is
	// 2·f·(1−f) for the mean zero fraction f (what uncorrelated masks
	// would show). Both being large confirms the zeros move with the
	// image, which is what makes runtime detection necessary.
	MeanDisagreement      float64
	ExpectedIfIndependent float64
}

// Fig2 measures zero-mask variation across test images in a mid-network
// convolution layer of GoogLeNet (or the first configured network if
// GoogLeNet is not in the set).
func (s *Suite) Fig2() Fig2Result {
	name := s.Cfg.Networks[0]
	for _, n := range s.Cfg.Networks {
		if n == "googlenet" {
			name = n
			break
		}
	}
	p := s.Prepared(name)
	// Pick the middle ReLU-fused convolution layer.
	var convs []string
	for _, cn := range p.Model.ConvNodes() {
		if cn.Conv.ReLU {
			convs = append(convs, cn.Name)
		}
	}
	layer := convs[len(convs)/2]

	masks := make([][]bool, 0, len(p.TestImgs))
	res := Fig2Result{Network: name, Layer: layer}
	for _, img := range p.TestImgs {
		var mask []bool
		p.Model.Graph.ForwardTap(img, func(node string, out *tensor.Tensor) {
			if node != layer {
				return
			}
			d := out.Data()
			mask = make([]bool, len(d))
			zeros := 0
			for i, v := range d {
				if v == 0 {
					mask[i] = true
					zeros++
				}
			}
			res.ZeroFracs = append(res.ZeroFracs, float64(zeros)/float64(len(d)))
		})
		masks = append(masks, mask)
	}
	var dis, pairs, fsum float64
	for _, f := range res.ZeroFracs {
		fsum += f
	}
	meanF := fsum / float64(len(res.ZeroFracs))
	for i := 0; i < len(masks); i++ {
		for j := i + 1; j < len(masks); j++ {
			n := 0
			for k := range masks[i] {
				if masks[i][k] != masks[j][k] {
					n++
				}
			}
			dis += float64(n) / float64(len(masks[i]))
			pairs++
		}
	}
	res.MeanDisagreement = dis / pairs
	res.ExpectedIfIndependent = 2 * meanF * (1 - meanF)

	if s.Cfg.Out != nil {
		t := report.Table{
			Title:   "Figure 2: spatial variation of zero activations across images (" + name + ", layer " + layer + ")",
			Headers: []string{"Metric", "Value"},
		}
		t.Add("mean zero fraction", report.Pct(meanF))
		t.Add("mean pairwise mask disagreement", report.Pct(res.MeanDisagreement))
		t.Add("disagreement if masks were independent", report.Pct(res.ExpectedIfIndependent))
		t.Render(s.Cfg.Out)
	}
	return res
}

// Table1Row is one row of Table I.
type Table1Row struct {
	Network       string
	ModelSizeMB   float64 // full-scale topology, 4-byte weights
	ConvLayers    int
	FCLayers      int
	PaperAccuracy float64
	// MeasuredAccuracy is the trained head's test accuracy on the
	// synthetic task at the configured scale (the substitution for the
	// paper's ImageNet top-1; see DESIGN.md).
	MeasuredAccuracy float64
}

// Table1 reproduces Table I: the workload summary.
func (s *Suite) Table1() []Table1Row {
	var rows []Table1Row
	for _, name := range s.Cfg.Networks {
		p := s.Prepared(name)
		full, err := models.Build(name, models.Options{Scale: models.Full, Classes: 1000, SkipInit: true})
		if err != nil {
			panic(err)
		}
		d := full.Describe()
		rows = append(rows, Table1Row{
			Network:          name,
			ModelSizeMB:      d.ModelSizeMB,
			ConvLayers:       d.ConvLayers,
			FCLayers:         d.FCLayers,
			PaperAccuracy:    p.Model.PaperAccuracy,
			MeasuredAccuracy: 100 * p.BaseTestAcc,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Network < rows[j].Network })

	if s.Cfg.Out != nil {
		t := report.Table{
			Title:   "Table I: workloads (full-scale topology statistics; accuracy on the synthetic task)",
			Headers: []string{"Network", "Model Size (MB)", "Conv", "FC", "Paper Acc.", "Measured Acc."},
		}
		for _, r := range rows {
			t.Add(r.Network, report.F(r.ModelSizeMB, 1),
				report.F(float64(r.ConvLayers), 0), report.F(float64(r.FCLayers), 0),
				report.F(r.PaperAccuracy, 1)+"%", report.F(r.MeasuredAccuracy, 1)+"%")
		}
		t.Render(s.Cfg.Out)
	}
	return rows
}
