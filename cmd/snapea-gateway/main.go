// Command snapea-gateway is the cluster front tier: one HTTP endpoint
// fanning /v1/predict across a fixed fleet of snapea-serve replicas,
// with power-of-two-choices routing on in-flight requests, /readyz
// probe ejection, sequential failover and zero-downtime drain.
//
//	snapea-gateway -replicas http://h1:8080,http://h2:8080,http://h3:8080
//	snapea-gateway -addr localhost:0 -addr-file gateway.addr -metrics gw-metrics.json
//
// Endpoints: POST /v1/predict (proxied with failover), GET /v1/models
// (proxied), /healthz, /readyz (200 while accepting and ≥1 replica is
// healthy), /metricsz.
//
// SIGINT/SIGTERM (or -timeout) triggers graceful shutdown mirroring
// snapea-serve's exact-drain contract one tier up: /readyz flips to 503,
// new predictions are refused, in-flight proxied requests finish, then
// the process exits 0. Bad flags or a bad replica list exit 2.
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
	"snapea/internal/cluster"
	"snapea/internal/metrics"
)

// options is the parsed command line.
type options struct {
	addr, addrFile string
	replicas       string
	drain, timeout time.Duration
	cluster        cluster.Config
	obs            *cli.ObsFlagGroup
}

// registerFlags registers every snapea-gateway flag on fs.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", "localhost:9090", "listen address (use port 0 for an ephemeral port)")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound address to this file once listening (for scripts driving an ephemeral port)")
	fs.StringVar(&o.replicas, "replicas", "", "comma-separated snapea-serve base URLs")
	fs.DurationVar(&o.cluster.ProbeInterval, "probe-interval", 250*time.Millisecond, "replica /readyz poll period")
	fs.DurationVar(&o.cluster.ProbeTimeout, "probe-timeout", time.Second, "per-probe timeout")
	fs.IntVar(&o.cluster.ProbeFailures, "probe-failures", 2, "consecutive failed probes that eject a replica")
	fs.IntVar(&o.cluster.Attempts, "attempts", 3, "max sequential failover attempts per request, including the first")
	fs.DurationVar(&o.cluster.RequestTimeout, "request-timeout", 15*time.Second, "end-to-end deadline per gateway request")
	fs.DurationVar(&o.drain, "drain-timeout", 15*time.Second, "graceful-shutdown drain budget")
	fs.DurationVar(&o.timeout, "timeout", 0, "stop serving after this duration (0 = until signalled)")
	o.obs = cli.ObsFlags(fs)
	return o
}

// setup parses args (usage and parse errors go to out) and builds the
// gateway, which validates the replica list. It returns flag.ErrHelp
// for -h.
func setup(args []string, out io.Writer) (*options, *cluster.Gateway, error) {
	fs := flag.NewFlagSet("snapea-gateway", flag.ContinueOnError)
	fs.SetOutput(out)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	for _, v := range strings.Split(o.replicas, ",") {
		if v = strings.TrimSpace(v); v != "" {
			o.cluster.Replicas = append(o.cluster.Replicas, v)
		}
	}
	if len(o.cluster.Replicas) == 0 {
		return nil, nil, errors.New("no replicas: set -replicas")
	}
	g, err := cluster.New(o.cluster)
	if err != nil {
		return nil, nil, err
	}
	return o, g, nil
}

func main() {
	o, g, err := setup(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		cli.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "snapea-gateway: %v\n", err)
		cli.Exit(2)
	}

	obsStop, err := o.obs.Start("snapea-gateway")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		cli.Exit(2)
	}
	defer obsStop()
	// The gateway's counters and /metricsz are part of its contract.
	metrics.Enable()

	ctx, stop := cli.Context(o.timeout)
	defer stop()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		cli.Fatalf("snapea-gateway", "listen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "snapea-gateway: listening on http://%s (%d replicas)\n",
		ln.Addr(), len(o.cluster.Replicas))
	if o.addrFile != "" {
		if err := atomicfile.WriteFile(o.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			cli.Fatalf("snapea-gateway", "%v", err)
		}
	}

	httpSrv := &http.Server{Handler: g}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			cli.Fatalf("snapea-gateway", "serve: %v", err)
		}
	case <-ctx.Done():
	}

	// Drain ordering, gateway before replicas: the gateway stops sending
	// first (new predictions 503, /readyz down so an upstream LB moves
	// on), in-flight proxied requests finish against replicas that are
	// still accepting, and only then do the replicas' own drains matter.
	fmt.Fprintln(os.Stderr, "snapea-gateway: draining")
	g.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "snapea-gateway: shutdown: %v\n", err)
		httpSrv.Close()
	}
	g.Close()
	fmt.Fprintln(os.Stderr, "snapea-gateway: drained")
}
