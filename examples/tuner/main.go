// Tuner demonstrates the paper's central knob: Algorithm 1's acceptable
// accuracy loss ε controls how aggressively the predictive mode
// speculates. Sweeping ε through the experiment suite's predictive runs
// prints the trade-off curve between computation reduction and measured
// accuracy — the paper's Figure 11 in miniature, on the fast TinyNet
// model.
package main

import (
	"fmt"
	"os"

	"snapea/internal/experiments"
	"snapea/internal/report"
)

func main() {
	s := experiments.New(experiments.Config{
		Networks: []string{"tinynet"}, Seed: 11, Classes: 4,
		TrainImages: 96, OptImages: 24, TestImages: 40,
	})
	p := s.Prepared("tinynet")
	fmt.Printf("baseline test accuracy: %.1f%% on %d images\n\n", 100*p.BaseTestAcc, len(p.TestImgs))

	t := report.Table{
		Title:   "The accuracy knob: ε vs computation (TinyNet)",
		Headers: []string{"ε", "Predictive Layers", "MAC Reduction", "Test Accuracy"},
	}
	for _, eps := range []float64{0, 0.01, 0.03, 0.05, 0.10} {
		r := s.Predictive("tinynet", eps)
		t.Add(report.Pct(eps),
			fmt.Sprintf("%d/%d", len(r.Opt.Predictive), len(r.Opt.Params)),
			report.Pct(r.Trace.Reduction()),
			report.Pct(r.TestAcc))
	}
	t.Render(os.Stdout)
	fmt.Println("\nε=0 is the pure exact mode: fewer MACs, identical accuracy.")
	fmt.Println("Raising ε admits speculation: more savings for bounded accuracy loss.")
}
