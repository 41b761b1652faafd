// Command snapea-serve is the inference server: it serves compiled
// SnaPEA networks over HTTP, one Forward per request with at most
// GOMAXPROCS forwards in flight per model, so the engine's MAC savings
// show up as request latency.
//
//	snapea-serve -addr localhost:8080 -models tinynet
//	snapea-serve -models alexnet -params alexnet=alexnet.params.json -queue 128
//	snapea-serve -addr localhost:0 -addr-file serve.addr -metrics serve-metrics.json
//	snapea-serve -models tinynet -fault-weight-bitflip 1e-4   # chaos serving
//
// Endpoints: POST /v1/predict (JSON {"input":[...]} or raw little-endian
// float32 with Content-Type: application/octet-stream), GET /v1/models,
// /healthz, /readyz (200 only once the -models preload compiled),
// /metricsz (full metrics snapshot including the runtime serve section).
//
// Each served (model, mode) has one health state: a circuit breaker
// (-breaker-failures), an accuracy guardrail for predictive serving
// (-mispredict-budget, -audit-every), and the integrity layer
// (-scrub-interval, -canary-every, -require-checksums): a startup canary
// plus a background scrubber and periodic canary quarantine a corrupted
// model (fast 503 + X-Snapea-Quarantined, quarantined:true in /v1/models
// and /readyz) while a heal loop recompiles it from the artifact. See
// DESIGN.md, "Health".
//
// SIGINT/SIGTERM (or -timeout) triggers graceful shutdown: /readyz flips
// to 503, the listener stops accepting, every admitted request is
// answered, then the process exits 0. Bad flags exit 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"snapea/internal/atomicfile"
	"snapea/internal/cli"
	"snapea/internal/metrics"
	"snapea/internal/models"
	"snapea/internal/serve"
	"snapea/internal/snapea"
)

// options is the parsed command line.
type options struct {
	addr, addrFile string
	drain, timeout time.Duration
	serve          serve.Config
	workers        *cli.WorkersFlagGroup
	obs            *cli.ObsFlagGroup
}

// setup parses args (usage and parse errors go to out) and builds the
// server configuration. It returns flag.ErrHelp for -h.
func setup(args []string, out io.Writer) (*options, error) {
	fs := flag.NewFlagSet("snapea-serve", flag.ContinueOnError)
	fs.SetOutput(out)
	o := &options{}
	c := &o.serve
	fs.StringVar(&o.addr, "addr", "localhost:8080", "listen address (use port 0 for an ephemeral port)")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound address to this file once listening (for scripts driving an ephemeral port)")
	modelsFlag := fs.String("models", "tinynet", "comma-separated models to compile at startup; /readyz waits for them")
	scale := cli.ScaleFlag(fs, models.Reduced, "model scale: reduced or full")
	fs.IntVar(&c.Classes, "classes", 10, "classifier output classes")
	fs.Uint64Var(&c.Seed, "seed", 42, "deterministic model-build seed")
	params := fs.String("params", "", "comma-separated model=paramsfile pairs enabling predictive mode per model")
	negOrder := fs.String("negorder", "magnitude", "negative-weight ordering: magnitude or original")
	fs.IntVar(&c.QueueDepth, "queue", 64, "per-model requests waiting for a run slot; overflow is rejected with 429")
	fs.DurationVar(&c.RequestTimeout, "request-timeout", 5*time.Second, "per-request deadline covering the wait and inference; a forward still running at it is abandoned (<0 disables)")
	fs.IntVar(&c.BreakerFailures, "breaker-failures", 5, "consecutive failed forwards that open a model's circuit breaker (<0 disables)")
	fs.Float64Var(&c.MispredictBudget, "mispredict-budget", 0, "misprediction error budget; exceeding it degrades predictive serving to exact (0 disables)")
	fs.Int64Var(&c.AuditEvery, "audit-every", 8, "audit every Nth predictive forward with exact misprediction accounting (<0 disables)")
	fs.DurationVar(&c.ScrubInterval, "scrub-interval", 30*time.Second, "background scrub cadence over compiled model state (<0 disables)")
	fs.DurationVar(&c.CanaryEvery, "canary-every", time.Minute, "canary self-test cadence replaying each model's golden probe (<0 disables, startup check included)")
	fs.BoolVar(&c.RequireChecksums, "require-checksums", false, "reject params artifacts that carry no checksum block")
	fs.DurationVar(&o.drain, "drain-timeout", 15*time.Second, "graceful-shutdown drain budget")
	fs.DurationVar(&o.timeout, "timeout", 0, "stop serving after this duration (0 = until signalled)")
	faultFlags := cli.FaultFlags(fs)
	o.workers = cli.WorkersFlag(fs)
	o.obs = cli.ObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var err error
	if c.Faults, err = faultFlags.Config(c.Seed); err != nil {
		return nil, err
	}
	c.Models = splitList(*modelsFlag)
	c.Scale = *scale
	switch *negOrder {
	case "magnitude":
		c.NegOrder = snapea.NegByMagnitude
	case "original":
		c.NegOrder = snapea.NegOriginal
	default:
		return nil, fmt.Errorf("unknown -negorder %q (want magnitude or original)", *negOrder)
	}
	if *params != "" {
		c.ParamsFiles = make(map[string]string)
		for _, pair := range splitList(*params) {
			name, path, ok := strings.Cut(pair, "=")
			if !ok {
				return nil, fmt.Errorf("malformed -params entry %q (want model=path)", pair)
			}
			c.ParamsFiles[name] = path
		}
	}
	return o, nil
}

func main() {
	o, err := setup(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		cli.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "snapea-serve: %v\n", err)
		cli.Exit(2)
	}
	o.workers.Apply()

	obsStop, err := o.obs.Start("snapea-serve")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		cli.Exit(2)
	}
	defer obsStop()
	// The server's own counters and /metricsz are part of its contract,
	// not an opt-in debug mode.
	metrics.Enable()

	ctx, stop := cli.Context(o.timeout)
	defer stop()

	srv := serve.New(o.serve)
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		cli.Fatalf("snapea-serve", "listen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "snapea-serve: listening on http://%s\n", ln.Addr())
	if o.addrFile != "" {
		if err := atomicfile.WriteFile(o.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			cli.Fatalf("snapea-serve", "%v", err)
		}
	}

	preloadErr := make(chan error, 1)
	go func() {
		start := time.Now()
		if err := srv.Preload(ctx); err != nil {
			preloadErr <- err
			return
		}
		fmt.Fprintf(os.Stderr, "snapea-serve: ready (%s compiled in %s)\n",
			strings.Join(o.serve.Models, ","), time.Since(start).Round(time.Millisecond))
	}()

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-preloadErr:
		cli.Fatalf("snapea-serve", "preload: %v", err)
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			cli.Fatalf("snapea-serve", "serve: %v", err)
		}
	case <-ctx.Done():
	}

	// Graceful shutdown: flip readiness, stop accepting, answer every
	// admitted request, then flush observability output.
	fmt.Fprintln(os.Stderr, "snapea-serve: draining")
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "snapea-serve: shutdown: %v\n", err)
		httpSrv.Close()
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, "snapea-serve: drained")
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
