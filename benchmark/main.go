// Command benchmark is the repository's performance ledger: five
// workloads that put SnaPEA's forward next to im2col+GEMM on the same
// shapes, time Algorithm 1, and load the serving tier and the gateway,
// reporting end-to-end metrics from a timed pass with tracing off and
// per-layer metrics from a separate traced pass. README.md in this
// directory documents the workloads, the metrics and how they interact.
//
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark --workload vgg-exact-b1 --seed 3 --seconds 12 --trace 0
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload name, or \"all\" to run every workload through both passes")
		seed     = flag.Uint64("seed", 1, "workload seed: images, arrival schedule, image→request assignment")
		seconds  = flag.Float64("seconds", runSeconds, "measuring time of one pass")
		trace    = flag.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		quick    = flag.Bool("quick", false, "smoke sizes: tiny dataset splits")
		out      = flag.String("out", "", "append the run(s), with environment stamp and sample counts, to this result file")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans and per-node table to this file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		spec     = flag.Bool("print-spec", false, "print BENCHMARK.json as declared in spec.go")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *spec:
		data, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed > 0 {
			os.Exit(1)
		}
	case *name == "all":
		ok := true
		for i := range workloads {
			for _, traced := range []bool{false, true} {
				o := options{Workload: &workloads[i], Seed: *seed, Seconds: *seconds, Traced: traced, Quick: *quick}
				ok = one(ctx, o, *out, perWorkload(*traceOut, o.Workload.Name), false) && ok
			}
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (see README.md; -workload all runs every one)", *name))
		}
		o := options{Workload: w, Seed: *seed, Seconds: *seconds, Traced: *trace != 0, Quick: *quick}
		if !one(ctx, o, *out, *traceOut, true) {
			os.Exit(1)
		}
	}
}

// one runs one pass of one workload, prints its metrics by name, and
// (for the driver) ends standard output with the one-line JSON result.
// It reports whether every output check passed.
func one(ctx context.Context, o options, out, traceOut string, driver bool) bool {
	r, tf, err := run(ctx, o)
	if err != nil {
		fatal(err)
	}
	r.render(os.Stdout)
	if out != "" {
		if err := appendResult(out, r); err != nil {
			fatal(err)
		}
	}
	if traceOut != "" && o.Traced {
		if err := writeJSON(traceOut, tf); err != nil {
			fatal(err)
		}
	}
	if driver {
		fmt.Println(r.driverLine())
	}
	return r.Correct
}

// perWorkload turns "spans.json" into "spans.vgg-exact-b1.json" so that
// -workload all keeps one trace file per workload.
func perWorkload(path, workload string) string {
	if path == "" {
		return ""
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// benchmarkJSON renders the declarations in spec.go in the shape of the
// repository's BENCHMARK.json.
func benchmarkJSON() any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	return doc
}
