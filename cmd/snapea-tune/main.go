// Command snapea-tune runs the paper's Algorithm 1 offline optimizer for
// one network and writes the chosen speculation parameters (Th, N per
// kernel) as JSON — the artifact the accelerator's weight/index buffers
// are loaded from.
//
// It emits the experiment suite's parameters: the network is the
// suite's prepared model for -seed (built, calibrated, head trained;
// internal/experiments) and Algorithm 1 runs in the suite's
// configuration, so the file is byte-identical to the one snapea-bench
// and snapea-sim -mode predictive tune for the same -net, -seed, -eps
// and -opt-images.
//
// The run goes start to finish: SIGINT (or -timeout expiry) stops it
// between layers and writes no params file. A rerun with the same flags
// is deterministic and writes the bytes the stopped run would have.
//
//	snapea-tune -net googlenet -eps 0.03 -o params.json
//	snapea-tune -net vggnet -timeout 10m -o params.json
//
// Exit codes: 0 ok, 1 failure, 2 bad flags, 3 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"snapea/internal/atomicfile"
	"snapea/internal/cli"
	"snapea/internal/experiments"
	"snapea/internal/models"
)

// options is the parsed command line.
type options struct {
	net       string
	eps       float64
	seed      uint64
	out       string
	optImages int
	verbose   bool
	timeout   time.Duration
	workers   *cli.WorkersFlagGroup
	obs       *cli.ObsFlagGroup
}

// parse parses and validates args before any work is done; usage and
// errors go to stderr. It returns flag.ErrHelp for -h.
func parse(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("snapea-tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.net, "net", "googlenet", "network to tune ("+strings.Join(models.Names(), " ")+")")
	fs.Float64Var(&o.eps, "eps", 0.03, "acceptable accuracy loss ε (finite, >= 0)")
	fs.Uint64Var(&o.seed, "seed", 42, "deterministic seed")
	fs.StringVar(&o.out, "o", "", "output JSON path (default stdout)")
	fs.IntVar(&o.optImages, "opt-images", 10, "optimization-set size (> 0)")
	fs.BoolVar(&o.verbose, "v", false, "log pipeline and optimizer progress")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort, writing nothing, after this duration (0 = none)")
	o.workers = cli.WorkersFlag(fs)
	o.obs = cli.ObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	switch {
	case !slices.Contains(models.Names(), o.net):
		err = fmt.Errorf("unknown network %q", o.net)
	case math.IsNaN(o.eps) || math.IsInf(o.eps, 0) || o.eps < 0:
		err = fmt.Errorf("-eps %v: want a finite ε >= 0", o.eps)
	case o.optImages <= 0:
		err = fmt.Errorf("-opt-images %d: want at least one image", o.optImages)
	}
	if err != nil {
		fmt.Fprintln(stderr, "snapea-tune:", err)
		fs.Usage()
		return nil, err
	}
	return o, nil
}

func main() {
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	o.workers.Apply()
	obsStop, err := o.obs.Start("snapea-tune")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer obsStop()
	ctx, stop := cli.Context(o.timeout)
	defer stop()
	return tune(ctx, o, stdout, stderr)
}

// tune prepares the suite's model, runs Algorithm 1 under ctx and writes
// the params file. A cancelled ctx stops the run with exit 3 and writes
// nothing.
func tune(ctx context.Context, o *options, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "snapea-tune: interrupted (%v); nothing written\n", err)
			return 3
		}
		fmt.Fprintln(stderr, "snapea-tune:", err)
		return 1
	}
	cfg := experiments.Config{Networks: []string{o.net}, Seed: o.seed, OptImages: o.optImages, Ctx: ctx}
	if o.verbose {
		cfg.Log = stderr
	}
	p, err := experiments.New(cfg).PreparedErr(o.net)
	if err != nil {
		return fail(err)
	}
	_, opt := p.Optimizer(o.eps)
	if o.verbose {
		opt.SetLog(func(f string, a ...any) { fmt.Fprintf(stderr, f+"\n", a...) })
	}
	res, err := opt.RunCtx(ctx)
	if err != nil {
		return fail(err)
	}

	file := res.File(o.net, o.eps)
	enc, err := file.Marshal()
	if err != nil {
		return fail(err)
	}
	if o.out == "" {
		fmt.Fprintln(stdout, string(enc))
		return 0
	}
	if err := atomicfile.WriteFile(o.out, enc, 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "snapea-tune: wrote %s (%d predictive layers, loss %.3f)\n",
		o.out, len(file.Predictive), res.BaseAcc-res.FinalAcc)
	return 0
}
