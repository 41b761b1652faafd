// Package cli holds the flag and lifecycle plumbing the snapea-* tools
// share: a signal-aware root context with optional deadline, the
// fault-injection flag group, and the -workers parallelism knob, so
// every tool spells the robustness and performance knobs the same way.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"snapea/internal/faults"
	"snapea/internal/parallel"
)

// ApplyEnv installs environment-variable defaults after Parse. Each map
// pairs a flag name with its environment variable; for every pair where
// the flag was NOT given on the command line and the variable is set
// and non-empty, the value is applied through the flag's own parser.
// Precedence is therefore command line > environment > built-in
// default — the -workers env-clobber bug class (a flag's unset default
// value silently overriding an environment setting because the two are
// indistinguishable by value) cannot recur for any group wired through
// here, since explicit-set detection uses flag.Visit, not the value.
// A malformed environment value is an error naming the variable.
func ApplyEnv(fs *flag.FlagSet, envs ...map[string]string) error {
	if fs == nil {
		fs = flag.CommandLine
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, env := range envs {
		names := make([]string, 0, len(env))
		for name := range env {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if set[name] {
				continue
			}
			val, ok := os.LookupEnv(env[name])
			if !ok || val == "" {
				continue
			}
			if err := fs.Set(name, val); err != nil {
				return fmt.Errorf("cli: %s=%q for -%s: %w", env[name], val, name, err)
			}
		}
	}
	return nil
}

// ObsEnv maps the observability flag group (ObsFlags) to its
// environment defaults, so a deployment can turn on metrics or pprof
// for every tool without editing each invocation.
func ObsEnv() map[string]string {
	return map[string]string{
		"metrics":               "SNAPEA_METRICS",
		"metrics-deterministic": "SNAPEA_METRICS_DETERMINISTIC",
		"pprof":                 "SNAPEA_PPROF",
		"trace":                 "SNAPEA_TRACE",
	}
}

// ServeEnv maps snapea-serve's admission, lifecycle, breaker and
// integrity flags to their environment defaults, so a fleet can tighten
// scrub cadence or demand checksummed artifacts without editing each
// unit file.
func ServeEnv() map[string]string {
	return map[string]string{
		"addr":              "SNAPEA_ADDR",
		"queue":             "SNAPEA_QUEUE",
		"request-timeout":   "SNAPEA_REQUEST_TIMEOUT",
		"drain-timeout":     "SNAPEA_DRAIN_TIMEOUT",
		"breaker-failures":  "SNAPEA_BREAKER_FAILURES",
		"scrub-interval":    "SNAPEA_SCRUB_INTERVAL",
		"canary-every":      "SNAPEA_CANARY_EVERY",
		"require-checksums": "SNAPEA_REQUIRE_CHECKSUMS",
	}
}

// GatewayEnv maps snapea-gateway's listen, fleet, probing, and drain
// flags to their environment defaults.
func GatewayEnv() map[string]string {
	return map[string]string{
		"addr":           "SNAPEA_GATEWAY_ADDR",
		"replicas":       "SNAPEA_GATEWAY_REPLICAS",
		"probe-interval": "SNAPEA_GATEWAY_PROBE_INTERVAL",
		"drain-timeout":  "SNAPEA_GATEWAY_DRAIN_TIMEOUT",
	}
}

// LoadEnv maps snapea-load's traffic-shape flags to their environment
// defaults.
func LoadEnv() map[string]string {
	return map[string]string{
		"url":     "SNAPEA_LOAD_URL",
		"n":       "SNAPEA_LOAD_N",
		"c":       "SNAPEA_LOAD_C",
		"rate":    "SNAPEA_LOAD_RATE",
		"retries": "SNAPEA_LOAD_RETRIES",
	}
}

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
// Parse.
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
	fs.DurationVar(&g.serveDelay, "fault-serve-delay", 0, "added latency injected into faulted serving forwards (chaos serving)")
	fs.Float64Var(&g.serveDelayRate, "fault-serve-delay-rate", 0, "per-forward probability of the injected delay (0 with a delay set = every forward)")
	fs.Float64Var(&g.servePanicRate, "fault-serve-panic", 0, "per-forward probability that the serving forward panics")
	fs.Float64Var(&g.serveErrRate, "fault-serve-err", 0, "per-forward probability that the serving forward fails")
	fs.Int64Var(&g.serveLimit, "fault-serve-limit", 0, "total serve-path faults to inject before running clean (0 = unlimited)")
	fs.StringVar(&g.serveTarget, "fault-serve-target", "", "restrict serve-path faults to model/mode sites containing this substring")
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
	serveDelay      time.Duration
	serveDelayRate  float64
	servePanicRate  float64
	serveErrRate    float64
	serveLimit      int64
	serveTarget     string
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
		ServeDelay:      g.serveDelay,
		ServeDelayRate:  g.serveDelayRate,
		ServePanicRate:  g.servePanicRate,
		ServeErrRate:    g.serveErrRate,
		ServeLimit:      g.serveLimit,
		ServeTarget:     g.serveTarget,
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
