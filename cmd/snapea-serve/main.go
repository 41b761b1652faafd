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
// The integrity layer (-scrub-interval, -canary-every, -scrub-mbps,
// -require-checksums, -heal-backoff) detects silent corruption of a
// served model: a startup canary plus a background scrubber and periodic
// canary quarantine a corrupted model (fast 503 + X-Snapea-Quarantined,
// quarantined:true in /v1/models and /readyz) while a heal loop
// recompiles it from the artifact. See DESIGN.md, "Integrity and
// self-healing".
//
// SIGINT/SIGTERM (or -timeout) triggers graceful shutdown: /readyz flips
// to 503, the listener stops accepting, every admitted request is
// answered, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
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

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address (use port 0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts driving an ephemeral port)")
	modelsFlag := flag.String("models", "tinynet", "comma-separated models to compile at startup; /readyz waits for them")
	scale := flag.String("scale", "reduced", "model scale: reduced or full")
	classes := flag.Int("classes", 10, "classifier output classes")
	seed := flag.Uint64("seed", 42, "deterministic model-build seed")
	params := flag.String("params", "", "comma-separated model=paramsfile pairs enabling predictive mode per model")
	negOrder := flag.String("negorder", "magnitude", "negative-weight ordering: magnitude or original")
	queue := flag.Int("queue", 64, "per-model requests waiting for a run slot; overflow is rejected with 429")
	reqTimeout := flag.Duration("request-timeout", 5*time.Second, "per-request deadline covering the wait and inference; a forward still running at it is abandoned (<0 disables)")
	breakerFailures := flag.Int("breaker-failures", 5, "consecutive failed forwards that open a model's circuit breaker (<0 disables)")
	breakerOpen := flag.Duration("breaker-open", 2*time.Second, "how long an open breaker rejects before half-open probes")
	breakerProbes := flag.Int("breaker-probes", 2, "consecutive half-open successes that close the breaker")
	mispredictBudget := flag.Float64("mispredict-budget", 0, "misprediction error budget; exceeding it degrades predictive serving to exact (0 disables)")
	guardWindow := flag.Int("guard-window", 32, "guardrail sliding window in audited forwards")
	guardCooldown := flag.Int("guard-cooldown", 16, "degraded forwards served before the guardrail probes predictive mode again")
	auditEvery := flag.Int64("audit-every", 8, "audit every Nth predictive forward with exact misprediction accounting (<0 disables)")
	scrubInterval := flag.Duration("scrub-interval", 30*time.Second, "background scrub cadence over compiled model state (<0 disables)")
	scrubMBps := flag.Float64("scrub-mbps", 64, "scrubber re-hash rate limit in MB/s (<0 unthrottled)")
	canaryEvery := flag.Duration("canary-every", time.Minute, "canary self-test cadence replaying each model's golden probe (<0 disables, startup check included)")
	requireChecksums := flag.Bool("require-checksums", false, "reject params artifacts that carry no checksum block")
	healBackoff := flag.Duration("heal-backoff", time.Second, "delay between failed heal attempts for a quarantined model")
	drain := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain budget")
	timeout := flag.Duration("timeout", 0, "stop serving after this duration (0 = until signalled)")
	faultFlags := cli.FaultFlags(nil)
	workers := cli.WorkersFlag(nil)
	obs := cli.ObsFlags(nil)
	flag.Parse()
	if err := cli.ApplyEnv(nil, cli.ServeEnv(), cli.BreakerEnv(), cli.IntegrityEnv(), cli.ObsEnv()); err != nil {
		cli.Fatalf("snapea-serve", "%v", err)
	}
	workers.Apply()

	obsStop, err := obs.Start("snapea-serve")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		cli.Exit(2)
	}
	defer obsStop()
	// The server's own counters and /metricsz are part of its contract,
	// not an opt-in debug mode.
	metrics.Enable()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	faultCfg, err := faultFlags.Config(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapea-serve:", err)
		cli.Exit(2)
	}

	cfg := serve.Config{
		Models:           splitList(*modelsFlag),
		Classes:          *classes,
		Seed:             *seed,
		QueueDepth:       *queue,
		RequestTimeout:   *reqTimeout,
		BreakerFailures:  *breakerFailures,
		BreakerOpenFor:   *breakerOpen,
		BreakerProbes:    *breakerProbes,
		MispredictBudget: *mispredictBudget,
		GuardWindow:      *guardWindow,
		GuardCooldown:    *guardCooldown,
		AuditEvery:       *auditEvery,
		Faults:           faultCfg,
		ScrubInterval:    *scrubInterval,
		ScrubMBps:        *scrubMBps,
		CanaryEvery:      *canaryEvery,
		RequireChecksums: *requireChecksums,
		HealBackoff:      *healBackoff,
	}
	if *scale == "full" {
		cfg.Scale = models.Full
	}
	switch *negOrder {
	case "magnitude":
		cfg.NegOrder = snapea.NegByMagnitude
	case "original":
		cfg.NegOrder = snapea.NegOriginal
	default:
		cli.Fatalf("snapea-serve", "unknown -negorder %q (want magnitude or original)", *negOrder)
	}
	if *params != "" {
		cfg.ParamsFiles = make(map[string]string)
		for _, pair := range splitList(*params) {
			name, path, ok := strings.Cut(pair, "=")
			if !ok {
				cli.Fatalf("snapea-serve", "malformed -params entry %q (want model=path)", pair)
			}
			cfg.ParamsFiles[name] = path
		}
	}

	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatalf("snapea-serve", "listen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "snapea-serve: listening on http://%s\n", ln.Addr())
	if *addrFile != "" {
		if err := atomicfile.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
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
			*modelsFlag, time.Since(start).Round(time.Millisecond))
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
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
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
