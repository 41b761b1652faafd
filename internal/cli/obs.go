package cli

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux
	"os"
	"path/filepath"
	"runtime/trace"
	"strings"
	"sync"

	"snapea/internal/atomicfile"
	"snapea/internal/metrics"
)

// ObsFlags registers the shared observability flag group on fs (the
// default FlagSet when fs is nil): -metrics, -metrics-deterministic,
// -pprof, and -trace. Call Start after Parse; everything is a no-op
// when no flag was given, so instrumented code costs one atomic load
// per call site in normal runs.
func ObsFlags(fs *flag.FlagSet) *ObsFlagGroup {
	if fs == nil {
		fs = flag.CommandLine
	}
	g := &ObsFlagGroup{}
	fs.StringVar(&g.metricsPath, "metrics", "", "enable metrics and write a snapshot to this file on exit (.json or .csv)")
	fs.BoolVar(&g.deterministic, "metrics-deterministic", false, "omit the runtime section from the snapshot, making the file byte-identical across -workers")
	fs.StringVar(&g.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&g.tracePath, "trace", "", "write a runtime/trace execution trace to this file")
	return g
}

// ObsFlagGroup holds the parsed observability flags.
type ObsFlagGroup struct {
	metricsPath   string
	deterministic bool
	pprofAddr     string
	tracePath     string
}

// Start turns on everything the flags requested: metrics collection,
// the pprof HTTP server, and runtime tracing. It returns an idempotent
// stop function that must run on every exit path (including before
// os.Exit) — stop flushes the trace and writes the metrics snapshot.
// Errors during Start leave nothing running. The os.Create below feeds
// the runtime/trace stream, which must be written incrementally — it is
// runtime instrumentation, never a deterministic artifact.
//
//snapea:runtime
func (g *ObsFlagGroup) Start(tool string) (stop func(), err error) {
	var (
		ln        net.Listener
		traceFile *os.File
	)
	fail := func(err error) (func(), error) {
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
		if ln != nil {
			ln.Close()
		}
		return nil, err
	}
	if g.pprofAddr != "" {
		ln, err = net.Listen("tcp", g.pprofAddr)
		if err != nil {
			return fail(fmt.Errorf("%s: pprof listen: %w", tool, err))
		}
		srv := &http.Server{Handler: http.DefaultServeMux}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "%s: pprof serving on http://%s/debug/pprof/\n", tool, ln.Addr())
	}
	if g.tracePath != "" {
		traceFile, err = os.Create(g.tracePath)
		if err != nil {
			return fail(fmt.Errorf("%s: trace: %w", tool, err))
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			return fail(fmt.Errorf("%s: trace: %w", tool, err))
		}
	}
	if g.metricsPath != "" {
		metrics.Enable()
	}
	var once sync.Once
	stopFn := func() {
		once.Do(func() {
			if traceFile != nil {
				trace.Stop()
				traceFile.Close()
			}
			if g.metricsPath != "" {
				if err := g.writeSnapshot(); err != nil {
					fmt.Fprintf(os.Stderr, "%s: metrics: %v\n", tool, err)
				}
			}
			if ln != nil {
				ln.Close()
			}
		})
	}
	// Register with Exit so error paths (cli.Fatalf, cli.Exit) still
	// flush the trace and write the snapshot; stopFn is idempotent, so
	// a tool deferring it too is harmless.
	OnExit(stopFn)
	return stopFn, nil
}

// writeSnapshot exports the registry and writes it atomically to the
// -metrics path; a .csv extension selects CSV, everything else JSON.
func (g *ObsFlagGroup) writeSnapshot() error {
	snap := metrics.Export(!g.deterministic)
	var buf bytes.Buffer
	var err error
	if strings.EqualFold(filepath.Ext(g.metricsPath), ".csv") {
		err = snap.WriteCSV(&buf)
	} else {
		err = snap.WriteJSON(&buf)
	}
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(g.metricsPath, buf.Bytes(), 0o644)
}
