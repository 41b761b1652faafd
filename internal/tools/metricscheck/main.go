// Command metricscheck validates a metrics snapshot written by the
// snapea-* tools' -metrics flag: the file must parse as snapshot JSON,
// carry the expected schema version, and — for every counter named with
// -nonzero (deterministic section) or -nonzero-runtime (runtime
// section, where the serving metrics live) — have a positive value
// summed across its label sets. CI's metrics and serve smokes use it to
// catch instrumentation that silently stops recording.
//
//	snapea-bench -exp fig8 -metrics snap.json
//	go run ./internal/tools/metricscheck -nonzero engine.windows,sim.cycles snap.json
//	go run ./internal/tools/metricscheck -nonzero-runtime serve.requests,serve.batches serve.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// point mirrors one exported counter.
type point struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// snapshot mirrors the fields metricscheck validates; unknown fields
// (histograms, spans) pass through unchecked.
type snapshot struct {
	Version  int     `json:"version"`
	Counters []point `json:"counters"`
	Runtime  *struct {
		Counters []point `json:"counters"`
	} `json:"runtime"`
}

func main() {
	nonzero := flag.String("nonzero", "", "comma-separated deterministic counter names that must sum to a positive value")
	nonzeroRT := flag.String("nonzero-runtime", "", "comma-separated runtime-section counter names that must sum to a positive value")
	version := flag.Int("version", 1, "required snapshot schema version")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-nonzero a,b,c] [-nonzero-runtime d,e] <snapshot.json>")
		os.Exit(2)
	}
	path := flag.Arg(0)

	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		fail("%s: not a metrics snapshot: %v", path, err)
	}
	if snap.Version != *version {
		fail("%s: snapshot version %d, want %d", path, snap.Version, *version)
	}

	bad := 0
	bad += check(path, "counter", snap.Counters, *nonzero)
	var rt []point
	if snap.Runtime != nil {
		rt = snap.Runtime.Counters
	}
	bad += check(path, "runtime counter", rt, *nonzeroRT)
	if bad > 0 {
		os.Exit(1)
	}
	nRT := 0
	if snap.Runtime != nil {
		nRT = len(snap.Runtime.Counters)
	}
	fmt.Printf("metricscheck: %s ok (%d counters, %d runtime counters)\n", path, len(snap.Counters), nRT)
}

// check sums the points per name and verifies every requested name is
// present and positive, returning the number of failures.
func check(path, kind string, points []point, names string) int {
	sums := make(map[string]int64)
	for _, p := range points {
		sums[p.Name] += p.Value
	}
	bad := 0
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		v, ok := sums[name]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "metricscheck: %s: %s %q missing\n", path, kind, name)
			bad++
		case v <= 0:
			fmt.Fprintf(os.Stderr, "metricscheck: %s: %s %q is %d, want > 0\n", path, kind, name, v)
			bad++
		}
	}
	return bad
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metricscheck: "+format+"\n", args...)
	os.Exit(1)
}
