// Package snapea_bench is the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (Section VI), plus the
// ablation benches DESIGN.md calls out. Each benchmark regenerates its
// experiment through the shared pipeline (build → calibrate → train →
// Algorithm 1 → trace → cycle-simulate) and prints the paper-style rows
// on the first run.
//
// By default the harness runs two networks (alexnet, squeezenet) at
// reduced scale so `go test -bench=.` completes in a couple of minutes
// on one core; set SNAPEA_BENCH_NETS=alexnet,googlenet,squeezenet,vggnet
// to regenerate the full evaluation, as cmd/snapea-bench does.
package snapea_bench

import (
	"os"
	"strings"
	"sync"
	"testing"

	"snapea/internal/experiments"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite builds the shared, cached experiment suite. Pipeline stages
// are computed once — fanned across the worker pool by Prewarm (bounded
// by GOMAXPROCS or SNAPEA_WORKERS) — and each benchmark iteration then
// measures the regeneration of its table/figure from the cached stages.
func benchSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		nets := []string{"alexnet", "squeezenet"}
		if env := os.Getenv("SNAPEA_BENCH_NETS"); env != "" {
			nets = strings.Split(env, ",")
		}
		suite = experiments.New(experiments.Config{
			Networks: nets,
			Out:      os.Stdout,
			Log:      os.Stderr,
		})
		suite.Prewarm()
	})
	return suite
}

// BenchmarkOverall regenerates the paper's headline Section VI results —
// exact-mode Figure 8 and predictive-mode Figure 9 — end to end. This is
// the wall-clock number the parallel execution layer is judged by:
// the first iteration pays the full pipeline (build → calibrate → train
// → Algorithm 1 → trace → simulate) for every configured network.
func BenchmarkOverall(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if res := s.Fig8(); res.GeoSpeedup <= 1 {
			b.Fatalf("exact-mode geomean speedup %.3f", res.GeoSpeedup)
		}
		if res := s.Fig9(); res.GeoSpeedup <= 1 {
			b.Fatalf("predictive-mode geomean speedup %.3f", res.GeoSpeedup)
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkFig1NegativeFractions(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res := s.Fig1()
		if res.Average <= 0 {
			b.Fatal("no measurement")
		}
		s.Cfg.Out = nil // print tables once
	}
}

func BenchmarkFig2SpatialZeroVariation(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if res := s.Fig2(); res.MeanDisagreement <= 0 {
			b.Fatal("zero masks identical")
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkTable1Workloads(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if rows := s.Table1(); len(rows) == 0 {
			b.Fatal("no rows")
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkTable2Area(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if len(s.Table2()) != 9 {
			b.Fatal("table II rows")
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkTable3Energy(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if len(s.Table3()) != 5 {
			b.Fatal("table III rows")
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkFig8ExactMode(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res := s.Fig8()
		if res.GeoSpeedup <= 1 {
			b.Fatalf("exact-mode geomean speedup %.3f — SnaPEA must win", res.GeoSpeedup)
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkFig9PredictiveMode(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res := s.Fig9()
		if res.GeoSpeedup <= 1 {
			b.Fatalf("predictive-mode geomean speedup %.3f", res.GeoSpeedup)
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkFig10LayerSpeedups(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res := s.Fig10()
		if len(res) == 0 || res[0].MaxLayer.Speedup <= 0 {
			b.Fatal("no layer spread")
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkTable4PredictiveLayers(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.Table4()
		for _, r := range rows {
			if r.PctPredictive < 0 || r.PctPredictive > 1 {
				b.Fatalf("%s predictive share %.3f", r.Network, r.PctPredictive)
			}
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkTable5PredictionRates(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.Table5()
		for _, r := range rows {
			if r.TNR <= r.FNR {
				b.Fatalf("%s TNR %.3f ≤ FNR %.3f — predictor no better than chance", r.Network, r.TNR, r.FNR)
			}
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkFig11AccuracyKnob(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res := s.Fig11()
		if res.Geomeans[3] < res.Geomeans[0]*0.98 {
			b.Fatalf("ε=3%% (%.3f) slower than exact (%.3f)", res.Geomeans[3], res.Geomeans[0])
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkFig12LaneSensitivity(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res := s.Fig12()
		if res.Geomeans[1] <= res.Geomeans[0] {
			b.Fatalf("default lanes (%.3f) not above 0.5x (%.3f)", res.Geomeans[1], res.Geomeans[0])
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkAblationPrefixSelection(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res := s.AblationPrefix()
		if res.GroupFNR < 0 || res.NaiveFNR < 0 {
			b.Fatal("no ablation measurement")
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkAblationReorder(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res := s.AblationNegOrder()
		if res.MagnitudeOps <= 0 {
			b.Fatal("no measurement")
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkAblationLaneSync(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res := s.AblationLaneSync()
		if res.SyncCycles < res.IdealOps {
			b.Fatalf("sync cycles %d below ideal %d", res.SyncCycles, res.IdealOps)
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkAblationQuantization(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res := s.AblationQuantization()
		if res.OutputDisagreement > 0.05 {
			b.Fatalf("Q7.8 decisions disagree on %.1f%% of windows", 100*res.OutputDisagreement)
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkAblationFCTermination(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res := s.AblationFC()
		if res.WithFCRed < res.ConvOnlyRed {
			b.Fatalf("FC termination lost MACs: %.3f < %.3f", res.WithFCRed, res.ConvOnlyRed)
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkPruningComposition(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.PruningExperiment()
		for _, r := range rows {
			if r.MACRed <= 0 {
				b.Fatalf("no dynamic savings at sparsity %.2f", r.Sparsity)
			}
		}
		s.Cfg.Out = nil
	}
}

func BenchmarkSparsityComparison(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.SparsityComparison()
		for _, r := range rows {
			if r.CombinedRed < r.SnaPEARed {
				b.Fatalf("%s: combining with input skipping lost savings", r.Network)
			}
		}
		s.Cfg.Out = nil
	}
}
