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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"snapea/internal/cli"
	"snapea/internal/experiments"
	"snapea/internal/faults"
	"snapea/internal/models"
	"snapea/internal/report"
	"snapea/internal/sim"
	"snapea/internal/snapea"
)

func main() {
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: the summary goes to stdout, progress and
// errors to stderr. Bad flags exit 2 before any work. It returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snapea-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	net := fs.String("net", "squeezenet", "network to simulate ("+strings.Join(models.Names(), " ")+")")
	mode := fs.String("mode", "exact", "exact or predictive")
	eps := fs.Float64("eps", 0.03, "accuracy budget for predictive mode")
	lanes := fs.Float64("lanes", 1, "lane-count factor relative to the default 4 (0.5, 1, 2, 4)")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	layers := fs.Bool("layers", false, "print per-layer breakdown")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	faultFlags := cli.FaultFlags(fs)
	workers := cli.WorkersFlag(fs)
	obs := cli.ObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	faultCfg, err := faultFlags.Config(*seed)
	switch {
	case !slices.Contains(models.Names(), *net):
		err = fmt.Errorf("unknown network %q", *net)
	case *mode != "exact" && *mode != "predictive":
		err = fmt.Errorf("unknown mode %q (want exact or predictive)", *mode)
	}
	if err != nil {
		fmt.Fprintln(stderr, "snapea-sim:", err)
		fs.Usage()
		return 2
	}
	workers.Apply()

	obsStop, err := obs.Start("snapea-sim")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer obsStop()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	fail := func(err error) int {
		fmt.Fprintln(stderr, "snapea-sim:", err)
		return 1
	}

	s := experiments.New(experiments.Config{
		Networks: []string{*net},
		Seed:     *seed,
		Epsilon:  *eps,
		Out:      stderr,
		Log:      stderr,
		Ctx:      ctx,
	})

	var snap, base *sim.Result
	var trace *snapea.NetTrace
	var prep *experiments.Prepared
	var params map[string]snapea.LayerParams
	if *mode == "exact" {
		r, err := s.ExactErr(*net)
		if err != nil {
			return fail(err)
		}
		snap, base, trace, prep = r.Snap, r.Base, r.Trace, r.Prep
	} else {
		r, err := s.PredictiveErr(*net, *eps)
		if err != nil {
			return fail(err)
		}
		snap, base, trace, prep = r.Snap, r.Base, r.Trace, r.Prep
		params = r.Opt.Params
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
				return fail(err)
			}
			faulty.Forward(img, opts, trace)
		}
		snap, err = sim.SimulateCtx(ctx, sim.SnaPEAConfig(), sim.LoadsFromTrace(prep.Model, trace, sim.Spills(prep.Model)))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "snapea-sim: injected faults: %s\n", inj.Stats())
	}

	if *lanes != 1 {
		// Re-simulate the same trace at a different lane count.
		cfg := sim.SnaPEAConfig().WithLanes(*lanes)
		loads := sim.LoadsFromTrace(prep.Model, trace, sim.Spills(prep.Model))
		snap, err = sim.SimulateCtx(ctx, cfg, loads)
		if err != nil {
			return fail(err)
		}
	}

	fmt.Fprintf(stdout, "network   : %s (%s mode)\n", *net, *mode)
	fmt.Fprintf(stdout, "snapea    : %s\n", snap)
	fmt.Fprintf(stdout, "eyeriss   : %s\n", base)
	fmt.Fprintf(stdout, "speedup   : %.2fx\n", snap.Speedup(base))
	fmt.Fprintf(stdout, "energy red: %.2fx\n", snap.EnergyReduction(base))
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
		t.Render(stdout)
	}
	return 0
}
