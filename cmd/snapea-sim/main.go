// Command snapea-sim cycle-simulates one network on the SnaPEA
// accelerator and the EYERISS baseline and prints per-layer cycles,
// energy and the resulting speedup.
//
//	snapea-sim -net squeezenet -mode exact
//	snapea-sim -net googlenet -mode predictive -eps 0.03 -lanes 2
//	snapea-sim -net alexnet -fault-weight-bitflip 1e-4 -fault-stuck 1e-3
//
// When any -fault-* rate is set the compiled speculation state (weight
// buffers, Th/N registers) is corrupted by a deterministic injector
// before tracing, and the faulty machine is what gets simulated.
package main

import (
	"flag"
	"fmt"
	"os"

	"snapea/internal/cli"
	"snapea/internal/experiments"
	"snapea/internal/faults"
	"snapea/internal/report"
	"snapea/internal/sim"
	"snapea/internal/snapea"
)

func main() {
	net := flag.String("net", "squeezenet", "network to simulate")
	mode := flag.String("mode", "exact", "exact or predictive")
	eps := flag.Float64("eps", 0.03, "accuracy budget for predictive mode")
	lanes := flag.Float64("lanes", 1, "lane-count factor relative to the default 4 (0.5, 1, 2, 4)")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	layers := flag.Bool("layers", false, "print per-layer breakdown")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	faultFlags := cli.FaultFlags(nil)
	workers := cli.WorkersFlag(nil)
	obs := cli.ObsFlags(nil)
	flag.Parse()
	if err := cli.ApplyEnv(nil, cli.ObsEnv()); err != nil {
		cli.Fatalf("snapea-sim", "%v", err)
	}
	workers.Apply()

	obsStop, err := obs.Start("snapea-sim")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		cli.Exit(2)
	}
	defer obsStop()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	faultCfg, err := faultFlags.Config(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapea-sim:", err)
		cli.Exit(2)
	}

	s := experiments.New(experiments.Config{
		Networks: []string{*net},
		Seed:     *seed,
		Epsilon:  *eps,
		Out:      os.Stderr,
		Log:      os.Stderr,
		Ctx:      ctx,
	})

	var snap, base *sim.Result
	var trace *snapea.NetTrace
	var prep *experiments.Prepared
	var params map[string]snapea.LayerParams
	switch *mode {
	case "exact":
		r, err := s.ExactErr(*net)
		if err != nil {
			cli.Fatalf("snapea-sim", "%v", err)
		}
		snap, base, trace, prep = r.Snap, r.Base, r.Trace, r.Prep
	case "predictive":
		r, err := s.PredictiveErr(*net, *eps)
		if err != nil {
			cli.Fatalf("snapea-sim", "%v", err)
		}
		snap, base, trace, prep = r.Snap, r.Base, r.Trace, r.Prep
		params = r.Opt.Params
	default:
		fmt.Fprintf(os.Stderr, "snapea-sim: unknown mode %q\n", *mode)
		cli.Exit(2)
	}

	if faultCfg.Enabled() {
		// Corrupt the compiled machine and re-trace: faults hit the
		// deployed weight/threshold buffers, not the tuning pipeline.
		inj := faults.New(faultCfg)
		faulty := snapea.CompileFaulty(prep.Model, params, snapea.NegByMagnitude, inj)
		trace = snapea.NewNetTrace()
		opts := snapea.RunOpts{CollectWindows: true, CollectPrediction: params != nil}
		for _, img := range prep.TestImgs {
			if err := ctx.Err(); err != nil {
				cli.Fatalf("snapea-sim", "%v", err)
			}
			faulty.Forward(img, opts, trace)
		}
		snap, err = sim.SimulateCtx(ctx, sim.SnaPEAConfig(), sim.LoadsFromTrace(prep.Model, trace, sim.Spills(prep.Model)))
		if err != nil {
			cli.Fatalf("snapea-sim", "%v", err)
		}
		fmt.Fprintf(os.Stderr, "snapea-sim: injected faults: %s\n", inj.Stats())
	}

	if *lanes != 1 {
		// Re-simulate the same trace at a different lane count.
		cfg := sim.SnaPEAConfig().WithLanes(*lanes)
		loads := sim.LoadsFromTrace(prep.Model, trace, sim.Spills(prep.Model))
		snap, err = sim.SimulateCtx(ctx, cfg, loads)
		if err != nil {
			cli.Fatalf("snapea-sim", "%v", err)
		}
	}

	fmt.Printf("network   : %s (%s mode)\n", *net, *mode)
	fmt.Printf("snapea    : %s\n", snap)
	fmt.Printf("eyeriss   : %s\n", base)
	fmt.Printf("speedup   : %.2fx\n", snap.Speedup(base))
	fmt.Printf("energy red: %.2fx\n", snap.EnergyReduction(base))
	if *layers {
		t := report.Table{
			Title:   "Per-layer breakdown",
			Headers: []string{"Layer", "SnaPEA cycles", "EYERISS cycles", "Speedup", "Util"},
		}
		baseBy := map[string]int64{}
		for _, l := range base.Layers {
			baseBy[l.Name] = l.Cycles
		}
		for _, l := range snap.Layers {
			sp := 0.0
			if l.Cycles > 0 {
				sp = float64(baseBy[l.Name]) / float64(l.Cycles)
			}
			t.Add(l.Name, fmt.Sprint(l.Cycles), fmt.Sprint(baseBy[l.Name]), report.X(sp), report.F(l.Utilization, 2))
		}
		t.Render(os.Stdout)
	}
}
