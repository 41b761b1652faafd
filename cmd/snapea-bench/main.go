// Command snapea-bench regenerates the paper's tables and figures
// (Section VI) on the synthetic reproduction pipeline. Run with no flags
// to produce everything, or pick one experiment:
//
//	snapea-bench -exp fig8
//	snapea-bench -exp fig11 -nets alexnet,googlenet
//	snapea-bench -exp all -v
//	snapea-bench -exp faults -fault-weight-bitflip 1e-4
//	snapea-bench -exp all -timeout 30m
//
// Known experiments: fig1 fig2 table1 table2 table3 fig8 fig9 fig10
// table4 table5 fig11 fig12 ablations pruning sparsity faults all.
//
// Batch runs are hardened: a panicking experiment is recorded and the
// rest continue; SIGINT or -timeout stops between experiments (exit 3);
// the exit status reports partial failure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"snapea/internal/cli"
	"snapea/internal/experiments"
	"snapea/internal/models"
)

func main() {
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: tables go to stdout, everything else to
// stderr. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snapea-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (fig1 fig2 table1 table2 table3 fig8 fig9 fig10 table4 table5 fig11 fig12 ablations pruning sparsity faults all)")
	nets := fs.String("nets", "", "comma-separated networks (default: alexnet,googlenet,squeezenet,vggnet)")
	scale := cli.ScaleFlag(fs, models.Reduced, "model scale: reduced or full")
	eps := fs.Float64("eps", 0.03, "acceptable accuracy loss for the predictive mode")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	verbose := fs.Bool("v", false, "stream optimizer progress")
	testImgs := fs.Int("test-images", 0, "held-out test images per network (0 = suite default)")
	optImgs := fs.Int("opt-images", 0, "optimization-set images (0 = suite default)")
	trainImgs := fs.Int("train-images", 0, "classifier-head training images (0 = suite default)")
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
	var networks []string
	if *nets != "" {
		networks = strings.Split(*nets, ",")
	}
	for _, n := range networks {
		if !slices.Contains(models.Names(), n) {
			fmt.Fprintf(stderr, "snapea-bench: unknown network %q\n", n)
			fs.Usage()
			return 2
		}
	}
	workers.Apply()

	obsStop, err := obs.Start("snapea-bench")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer obsStop()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	faultCfg, err := faultFlags.Config(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "snapea-bench:", err)
		return 2
	}

	cfg := experiments.Config{
		Seed:        *seed,
		Epsilon:     *eps,
		Verbose:     *verbose,
		Out:         stdout,
		Log:         stderr,
		TestImages:  *testImgs,
		OptImages:   *optImgs,
		TrainImages: *trainImgs,
		Ctx:         ctx,
		Faults:      faultCfg,
		Scale:       *scale,
		Networks:    networks,
	}
	s := experiments.New(cfg)

	list := s.Experiments()
	if *exp != "all" {
		var pick *experiments.NamedExperiment
		for i := range list {
			if list[i].Name == *exp {
				pick = &list[i]
				break
			}
		}
		if pick == nil {
			fmt.Fprintf(stderr, "snapea-bench: unknown experiment %q\n", *exp)
			fs.Usage()
			return 2
		}
		list = []experiments.NamedExperiment{*pick}
	}

	start := time.Now()
	if *exp == "all" {
		// Fan the network×mode pipeline stages across the worker pool
		// before the serial experiment loop; every experiment then renders
		// from warm caches. Results are identical — only faster.
		s.Prewarm()
	}
	failures := s.RunList(list)

	if err := ctx.Err(); err != nil {
		fmt.Fprintf(stderr, "snapea-bench: interrupted after %s (%v)\n", time.Since(start).Round(time.Second), err)
		return 3
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "snapea-bench: %d experiment(s) failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(stderr, "  %s: %v\n", f.Name, f.Err)
		}
		return 1
	}
	return 0
}
