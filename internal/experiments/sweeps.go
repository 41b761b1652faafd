package experiments

import (
	"fmt"

	"snapea/internal/report"
	"snapea/internal/sim"
)

// Fig11Point is one (network, ε) speedup measurement.
type Fig11Point struct {
	Network string
	Epsilon float64
	Speedup float64
	AccLoss float64
}

// Fig11Result is the accuracy-knob sweep with per-ε geometric means.
type Fig11Result struct {
	Epsilons []float64
	Points   []Fig11Point
	Geomeans []float64
}

// Fig11 reproduces Figure 11: speedup as the acceptable classification
// accuracy loss is relaxed from 0% (pure exact mode) through 1%, 2% and
// 3% (paper averages: 1.28×, 1.38×, 1.63×, 1.9×).
func (s *Suite) Fig11() Fig11Result {
	res := Fig11Result{Epsilons: []float64{0, 0.01, 0.02, 0.03}}
	for _, eps := range res.Epsilons {
		var sp []float64
		for _, name := range s.Cfg.Networks {
			var p Fig11Point
			if eps == 0 {
				r := s.Exact(name)
				p = Fig11Point{Network: name, Epsilon: 0, Speedup: r.Snap.Speedup(r.Base)}
			} else {
				r := s.Predictive(name, eps)
				p = Fig11Point{Network: name, Epsilon: eps, Speedup: r.Snap.Speedup(r.Base), AccLoss: r.AccLoss}
			}
			res.Points = append(res.Points, p)
			sp = append(sp, p.Speedup)
		}
		res.Geomeans = append(res.Geomeans, report.Geomean(sp))
	}
	if s.Cfg.Out != nil {
		t := report.Table{
			Title:   "Figure 11: speedup vs acceptable accuracy loss (paper avgs: 1.28x 1.38x 1.63x 1.9x)",
			Headers: []string{"Network", "ε=0%", "ε=1%", "ε=2%", "ε=3%"},
		}
		for _, name := range s.Cfg.Networks {
			row := []string{name}
			for _, eps := range res.Epsilons {
				for _, p := range res.Points {
					if p.Network == name && p.Epsilon == eps {
						row = append(row, report.X(p.Speedup))
					}
				}
			}
			t.Add(row...)
		}
		geo := []string{"geomean"}
		for _, g := range res.Geomeans {
			geo = append(geo, report.X(g))
		}
		t.Add(geo...)
		t.Render(s.Cfg.Out)
	}
	return res
}

// Fig12Point is one (network, lane-factor) speedup measurement.
type Fig12Point struct {
	Network string
	Factor  float64
	Lanes   int
	Speedup float64
}

// Fig12Result is the compute-lane sensitivity sweep.
type Fig12Result struct {
	Factors  []float64
	Points   []Fig12Point
	Geomeans []float64
}

// Fig12 reproduces Figure 12: sensitivity of the predictive-mode
// speedup to the number of compute lanes per PE (0.5×, default, 2×,
// 4×). The paper reports the default (4 lanes) as the sweet spot:
// halving the lanes costs ≈26%, doubling and quadrupling cost ≈36% and
// ≈45% because input-bank serialization and lane imbalance outgrow the
// added parallelism.
func (s *Suite) Fig12() Fig12Result {
	res := Fig12Result{Factors: []float64{0.5, 1, 2, 4}}
	for _, f := range res.Factors {
		cfg := sim.SnaPEAConfig().WithLanes(f)
		var sp []float64
		for _, name := range s.Cfg.Networks {
			r := s.Predictive(name, s.Cfg.Epsilon)
			spill := sim.Spills(r.Prep.Model)
			snap := sim.Simulate(cfg, sim.LoadsFromTrace(r.Prep.Model, r.Trace, spill))
			p := Fig12Point{Network: name, Factor: f, Lanes: cfg.LanesPerPE, Speedup: snap.Speedup(r.Base)}
			res.Points = append(res.Points, p)
			sp = append(sp, p.Speedup)
		}
		res.Geomeans = append(res.Geomeans, report.Geomean(sp))
	}
	if s.Cfg.Out != nil {
		t := report.Table{
			Title:   "Figure 12: speedup vs compute lanes per PE at ε=3% (default 4 lanes is the design point)",
			Headers: []string{"Network", "0.5x (2)", "1x (4)", "2x (8)", "4x (16)"},
		}
		for _, name := range s.Cfg.Networks {
			row := []string{name}
			for _, f := range res.Factors {
				for _, p := range res.Points {
					if p.Network == name && p.Factor == f {
						row = append(row, report.X(p.Speedup))
					}
				}
			}
			t.Add(row...)
		}
		geo := []string{"geomean"}
		for _, g := range res.Geomeans {
			geo = append(geo, report.X(g))
		}
		t.Add(geo...)
		t.Render(s.Cfg.Out)
	}
	return res
}

func (s *Suite) blank() {
	if s.Cfg.Out != nil {
		fmt.Fprintln(s.Cfg.Out)
	}
}
