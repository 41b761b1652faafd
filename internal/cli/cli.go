// Package cli holds the flag and lifecycle plumbing the snapea-* tools
// share: a signal-aware root context with optional deadline, the
// fault-injection flag group, the -workers parallelism knob, the
// observability group and the -scale parse, so every tool spells and
// validates the robustness and performance knobs the same way. Flags
// are the only way to configure a tool; the one environment variable,
// SNAPEA_WORKERS, belongs to internal/parallel and sets the worker-pool
// default (see WorkersFlag).
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"snapea/internal/faults"
	"snapea/internal/models"
	"snapea/internal/parallel"
)

// WorkersFlag registers the shared -workers flag on fs (the default
// FlagSet when fs is nil). Call Apply after Parse to install the value
// as the process-wide worker-pool limit; until then the pool keeps its
// GOMAXPROCS (or SNAPEA_WORKERS) default. Results are byte-identical for
// every worker count — the flag only trades wall-clock time.
func WorkersFlag(fs *flag.FlagSet) *WorkersFlagGroup {
	if fs == nil {
		fs = flag.CommandLine
	}
	g := &WorkersFlagGroup{fs: fs}
	fs.IntVar(&g.n, "workers", 0, "worker goroutines for parallel execution (0 = GOMAXPROCS)")
	return g
}

// WorkersFlagGroup holds the parsed -workers value.
type WorkersFlagGroup struct {
	fs *flag.FlagSet
	n  int
}

// Apply installs the parsed worker count as the process-wide pool limit
// and returns the effective count. The limit changes only when -workers
// was given on the command line: the flag's zero default is
// indistinguishable from an unset flag by value alone, and blindly
// applying it would clobber a SNAPEA_WORKERS env default with
// GOMAXPROCS. An explicit `-workers 0` still resets to GOMAXPROCS.
func (g *WorkersFlagGroup) Apply() int {
	set := false
	g.fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			set = true
		}
	})
	if set {
		parallel.SetLimit(g.n)
	}
	return parallel.Limit()
}

// ScaleFlag registers -scale on fs (the default FlagSet when fs is nil)
// with default def and returns where the parsed scale lands. The value
// must be "reduced" or "full": anything else fails fs.Parse, so a tool
// refuses it with its usage before any work.
func ScaleFlag(fs *flag.FlagSet, def models.Scale, usage string) *models.Scale {
	if fs == nil {
		fs = flag.CommandLine
	}
	s := def
	fs.Var((*scaleValue)(&s), "scale", usage)
	return &s
}

// scaleValue is a models.Scale as a flag.Value.
type scaleValue models.Scale

func (v *scaleValue) String() string { return models.Scale(*v).String() }

func (v *scaleValue) Set(s string) error {
	switch s {
	case models.Reduced.String():
		*v = scaleValue(models.Reduced)
	case models.Full.String():
		*v = scaleValue(models.Full)
	default:
		return fmt.Errorf("want %s or %s", models.Reduced, models.Full)
	}
	return nil
}

// Context returns the root context for a tool run: it cancels on SIGINT
// or SIGTERM (first signal cancels gracefully; a second one kills the
// process via the restored default handler), and — when timeout > 0 —
// on deadline expiry. Callers must invoke the returned stop function on
// exit.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() {
		cancel()
		stop()
	}
}

// FaultFlags registers the -fault-* flag group on fs (the default
// FlagSet when fs is nil) and returns the group for reading after
// Parse. The flags corrupt a compiled network: its weight buffers,
// activations and Th/N registers. faults.Config's serve-path injectors
// (Serve*) have no flag; the serving chaos tests set them directly.
func FaultFlags(fs *flag.FlagSet) *FaultFlagGroup {
	if fs == nil {
		fs = flag.CommandLine
	}
	g := &FaultFlagGroup{}
	fs.Uint64Var(&g.seed, "fault-seed", 0, "fault-injection seed (0 = derive from -seed)")
	fs.Float64Var(&g.weightBitFlip, "fault-weight-bitflip", 0, "per-weight bit-flip probability in the weight buffers")
	fs.Int64Var(&g.weightFlipLimit, "fault-weight-flip-limit", 0, "total weight-buffer bit flips to inject before running clean (0 = unlimited)")
	fs.Float64Var(&g.actBitFlip, "fault-act-bitflip", 0, "per-activation bit-flip probability per layer output")
	fs.Float64Var(&g.nanRate, "fault-nan", 0, "per-activation NaN/Inf poisoning probability")
	fs.Float64Var(&g.stuckZero, "fault-stuck", 0, "per-kernel stuck-at-zero probability (dead lanes)")
	fs.Float64Var(&g.thJitter, "fault-th-jitter", 0, "Gaussian jitter scale on speculation thresholds")
	fs.Float64Var(&g.nJitter, "fault-n-jitter", 0, "per-kernel probability of halving/doubling the group count N")
	return g
}

// FaultFlagGroup holds the parsed -fault-* values.
type FaultFlagGroup struct {
	seed            uint64
	weightBitFlip   float64
	weightFlipLimit int64
	actBitFlip      float64
	nanRate         float64
	stuckZero       float64
	thJitter        float64
	nJitter         float64
}

// Config validates the flags and returns the fault configuration.
// defaultSeed seeds the injector when -fault-seed is unset, so fault
// experiments inherit the tool's -seed determinism.
func (g *FaultFlagGroup) Config(defaultSeed uint64) (faults.Config, error) {
	cfg := faults.Config{
		Seed:            g.seed,
		WeightBitFlip:   g.weightBitFlip,
		WeightFlipLimit: g.weightFlipLimit,
		ActBitFlip:      g.actBitFlip,
		NaNRate:         g.nanRate,
		StuckZero:       g.stuckZero,
		ThJitter:        g.thJitter,
		NJitter:         g.nJitter,
	}
	if cfg.Seed == 0 {
		cfg.Seed = defaultSeed
	}
	if err := cfg.Validate(); err != nil {
		return faults.Config{}, err
	}
	return cfg, nil
}

// Fatalf prints "tool: message" to stderr and exits with status 1,
// running exit hooks first so observability output is flushed.
func Fatalf(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	Exit(1)
}

var exitHooks struct {
	mu  sync.Mutex
	fns []func()
}

// OnExit registers fn to run before Exit terminates the process. Hooks
// run in registration order; they should be idempotent, since a tool
// may also invoke the same cleanup via defer on the normal return path.
func OnExit(fn func()) {
	exitHooks.mu.Lock()
	exitHooks.fns = append(exitHooks.fns, fn)
	exitHooks.mu.Unlock()
}

// Exit runs the registered exit hooks and terminates the process.
// Tools use it instead of os.Exit so -metrics and -trace output is
// written even on error exits.
func Exit(code int) {
	exitHooks.mu.Lock()
	fns := exitHooks.fns
	exitHooks.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
	os.Exit(code)
}
