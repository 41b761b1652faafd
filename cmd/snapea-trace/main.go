// Command snapea-trace profiles where convolution windows terminate
// under SnaPEA execution: per-layer mean/percentile op fractions,
// termination causes, and op-count histograms — the distribution view
// behind the paper's Figures 4 and 5.
//
//	snapea-trace -net googlenet
//	snapea-trace -net alexnet -hist -buckets 10
//	snapea-trace -net alexnet -hist -fault-weight-bitflip 1e-4
//
// With -fault-* rates set, the histogram trace runs on a machine whose
// compiled weight buffers were corrupted by a deterministic injector,
// showing how faults shift the termination distribution.
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
	"snapea/internal/snapea"
)

func main() {
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: the profile and histograms go to stdout,
// progress and errors to stderr. Bad flags exit 2 before any work. It
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snapea-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	net := fs.String("net", "squeezenet", "network to trace ("+strings.Join(models.Names(), " ")+")")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	hist := fs.Bool("hist", false, "print per-layer op-count histograms")
	buckets := fs.Int("buckets", 8, "histogram buckets (> 0)")
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
	case *buckets <= 0:
		err = fmt.Errorf("-buckets %d: want at least one bucket", *buckets)
	}
	if err != nil {
		fmt.Fprintln(stderr, "snapea-trace:", err)
		fs.Usage()
		return 2
	}
	workers.Apply()

	obsStop, err := obs.Start("snapea-trace")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer obsStop()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	fail := func(err error) int {
		fmt.Fprintln(stderr, "snapea-trace:", err)
		return 1
	}

	s := experiments.New(experiments.Config{
		Networks: []string{*net},
		Seed:     *seed,
		Out:      stdout,
		Log:      stderr,
		Ctx:      ctx,
	})
	stats, err := s.StopProfileErr(*net)
	if err != nil {
		return fail(err)
	}
	if !*hist {
		return 0
	}

	// Re-trace one image for the histograms.
	p, err := s.PreparedErr(*net)
	if err != nil {
		return fail(err)
	}
	network := snapea.CompileExact(p.Model)
	if faultCfg.Enabled() {
		inj := faults.New(faultCfg)
		network = snapea.CompileFaulty(p.Model, nil, snapea.NegByMagnitude, inj)
		defer func() { fmt.Fprintf(stderr, "snapea-trace: injected faults: %s\n", inj.Stats()) }()
	}
	trace := snapea.NewNetTrace()
	network.Forward(p.TestImgs[0], snapea.RunOpts{CollectWindows: true}, trace)
	fmt.Fprintln(stdout)
	for _, st := range stats {
		tr := trace.Layers[st.Node]
		h := snapea.Histogram(tr, *buckets)
		if h == nil {
			continue
		}
		fmt.Fprintf(stdout, "%s (K=%d):\n", st.Node, tr.KernelSize)
		for i, v := range h {
			label := fmt.Sprintf("  %3.0f%%-%3.0f%% of K",
				100*float64(i)/float64(*buckets), 100*float64(i+1)/float64(*buckets))
			fmt.Fprintln(stdout, report.Bar(label, v, 1, 40))
		}
	}
	return 0
}
