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
	"flag"
	"fmt"
	"os"

	"snapea/internal/cli"
	"snapea/internal/experiments"
	"snapea/internal/faults"
	"snapea/internal/report"
	"snapea/internal/snapea"
)

func main() {
	net := flag.String("net", "squeezenet", "network to trace")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	hist := flag.Bool("hist", false, "print per-layer op-count histograms")
	buckets := flag.Int("buckets", 8, "histogram buckets")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	faultFlags := cli.FaultFlags(nil)
	workers := cli.WorkersFlag(nil)
	obs := cli.ObsFlags(nil)
	flag.Parse()
	workers.Apply()

	obsStop, err := obs.Start("snapea-trace")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		cli.Exit(2)
	}
	defer obsStop()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	faultCfg, err := faultFlags.Config(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapea-trace:", err)
		cli.Exit(2)
	}

	s := experiments.New(experiments.Config{
		Networks: []string{*net},
		Seed:     *seed,
		Out:      os.Stdout,
		Log:      os.Stderr,
		Ctx:      ctx,
	})
	stats, err := s.StopProfileErr(*net)
	if err != nil {
		cli.Fatalf("snapea-trace", "%v", err)
	}
	if !*hist {
		return
	}

	// Re-trace one image for the histograms.
	p, err := s.PreparedErr(*net)
	if err != nil {
		cli.Fatalf("snapea-trace", "%v", err)
	}
	network := snapea.CompileExact(p.Model)
	if faultCfg.Enabled() {
		inj := faults.New(faultCfg)
		network = snapea.CompileFaulty(p.Model, nil, snapea.NegByMagnitude, inj)
		defer func() { fmt.Fprintf(os.Stderr, "snapea-trace: injected faults: %s\n", inj.Stats()) }()
	}
	trace := snapea.NewNetTrace()
	network.Forward(p.TestImgs[0], snapea.RunOpts{CollectWindows: true}, trace)
	fmt.Println()
	for _, st := range stats {
		tr := trace.Layers[st.Node]
		h := snapea.Histogram(tr, *buckets)
		if h == nil {
			continue
		}
		fmt.Printf("%s (K=%d):\n", st.Node, tr.KernelSize)
		for i, v := range h {
			label := fmt.Sprintf("  %3.0f%%-%3.0f%% of K",
				100*float64(i)/float64(*buckets), 100*float64(i+1)/float64(*buckets))
			fmt.Println(report.Bar(label, v, 1, 40))
		}
	}
}
