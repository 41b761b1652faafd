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
// The run is cancellable and resumable: SIGINT (or -timeout expiry)
// stops between optimization stages with the completed work checkpointed,
// and -resume restarts from the checkpoint and produces results
// identical to an uninterrupted run. A checkpoint records a digest of
// the optimizer's inputs, so one written under another -seed or
// -opt-images is refused.
//
//	snapea-tune -net googlenet -eps 0.03 -o params.json
//	snapea-tune -net vggnet -timeout 10m -checkpoint tune.ckpt
//	snapea-tune -net vggnet -checkpoint tune.ckpt -resume
//
// Exit codes: 0 ok, 1 failure, 2 bad flags or a refused checkpoint,
// 3 interrupted.
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
	"snapea/internal/snapea"
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
	ckptPath  string
	resume    bool
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
	fs.DurationVar(&o.timeout, "timeout", 0, "abort (with checkpoint) after this duration (0 = none)")
	fs.StringVar(&o.ckptPath, "checkpoint", "", "checkpoint file (default: <-o path>.ckpt, or snapea-tune.ckpt)")
	fs.BoolVar(&o.resume, "resume", false, "resume from the checkpoint file")
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
	if o.ckptPath == "" {
		o.ckptPath = "snapea-tune.ckpt"
		if o.out != "" {
			o.ckptPath = o.out + ".ckpt"
		}
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

// tune prepares the suite's model, runs Algorithm 1 under ctx with
// checkpointing, and writes the params file.
func tune(ctx context.Context, o *options, stdout, stderr io.Writer) int {
	ck := snapea.NewOptCheckpoint(o.net, o.eps)
	if o.resume {
		var err error
		if ck, err = snapea.LoadOptCheckpoint(o.ckptPath); err == nil {
			err = ck.Compatible(o.net, o.eps)
		}
		if err != nil {
			fmt.Fprintln(stderr, "snapea-tune:", err)
			return 2
		}
		fmt.Fprintf(stderr, "snapea-tune: resuming from %s (%d profiled, %d locally optimized layers)\n",
			o.ckptPath, len(ck.Profiled), len(ck.Local))
	}

	cfg := experiments.Config{Networks: []string{o.net}, Seed: o.seed, OptImages: o.optImages, Ctx: ctx}
	if o.verbose {
		cfg.Log = stderr
	}
	saved := false
	interrupted := func(err error) int {
		if saved {
			fmt.Fprintf(stderr, "snapea-tune: interrupted (%v); progress saved to %s — rerun with -resume to finish\n", err, o.ckptPath)
		} else {
			fmt.Fprintf(stderr, "snapea-tune: interrupted (%v) before any progress was saved\n", err)
		}
		return 3
	}
	p, err := experiments.New(cfg).PreparedErr(o.net)
	if err != nil {
		if ctx.Err() != nil {
			return interrupted(err)
		}
		fmt.Fprintln(stderr, "snapea-tune:", err)
		return 1
	}

	_, opt := p.Optimizer(o.eps)
	if o.verbose {
		opt.SetLog(func(f string, a ...any) { fmt.Fprintf(stderr, f+"\n", a...) })
	}
	opt.SetCheckpoint(ck, func(ck *snapea.OptCheckpoint) error {
		saved = true
		return ck.Save(o.ckptPath)
	})
	res, err := opt.RunCtx(ctx)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return interrupted(err)
	}
	if err != nil {
		// Besides cancellation, RunCtx fails only on a checkpoint that
		// does not belong to this run.
		fmt.Fprintln(stderr, "snapea-tune:", err)
		return 2
	}

	file := res.File(o.net, o.eps)
	enc, err := file.Marshal()
	if err != nil {
		fmt.Fprintln(stderr, "snapea-tune:", err)
		return 1
	}
	if o.out == "" {
		fmt.Fprintln(stdout, string(enc))
	} else {
		if err := atomicfile.WriteFile(o.out, enc, 0o644); err != nil {
			fmt.Fprintln(stderr, "snapea-tune:", err)
			return 1
		}
		fmt.Fprintf(stderr, "snapea-tune: wrote %s (%d predictive layers, loss %.3f)\n",
			o.out, len(file.Predictive), res.BaseAcc-res.FinalAcc)
	}
	// A finished run owns its checkpoint; leaving it behind would make a
	// later -resume silently reuse stale state.
	os.Remove(o.ckptPath)
	return 0
}
