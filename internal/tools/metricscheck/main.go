// Command metricscheck validates a metrics snapshot written by the
// snapea-* tools' -metrics flag: the file must parse as snapshot JSON,
// carry the expected schema version, and — for every counter named with
// -nonzero (deterministic section) or -nonzero-runtime (runtime
// section, where the serving metrics live) — have a positive value
// summed across its label sets. CI's metrics and serve smokes use it to
// catch instrumentation that silently stops recording.
//
// With -resilience it additionally validates the supervision metrics'
// value domains: the serve.breaker_state gauge must hold a valid state
// (0 closed, 1 open, 2 half-open), serve.degraded must be 0 or 1, and
// every serve.breaker_*/serve.degrade*/serve.recover_* counter must be
// non-negative. The chaos smoke runs it on every phase's snapshot.
//
// With -integrity it validates the integrity layer's metrics: the
// integrity.quarantined gauge is boolean per label set, every
// integrity.* counter is non-negative, and the detect→quarantine→heal
// accounting is internally consistent (heals never exceed quarantines,
// and every quarantine traces back to a scrub mismatch or canary
// failure). The integrity smoke runs it on every phase's snapshot.
//
//	snapea-bench -exp fig8 -metrics snap.json
//	go run ./internal/tools/metricscheck -nonzero engine.windows,sim.cycles snap.json
//	go run ./internal/tools/metricscheck -nonzero-runtime serve.requests,serve.batches serve.json
//	go run ./internal/tools/metricscheck -resilience -nonzero-runtime serve.breaker_opens chaos.json
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
		Gauges   []point `json:"gauges"`
	} `json:"runtime"`
}

func main() {
	nonzero := flag.String("nonzero", "", "comma-separated deterministic counter names that must sum to a positive value")
	nonzeroRT := flag.String("nonzero-runtime", "", "comma-separated runtime-section counter names that must sum to a positive value")
	resilience := flag.Bool("resilience", false, "validate the serve.breaker_*/serve.degraded supervision metrics' value domains")
	integrity := flag.Bool("integrity", false, "validate the integrity.* metrics' value domains and quarantine/heal accounting")
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
	var rt, gauges []point
	if snap.Runtime != nil {
		rt = snap.Runtime.Counters
		gauges = snap.Runtime.Gauges
	}
	bad += check(path, "runtime counter", rt, *nonzeroRT)
	if *resilience {
		bad += checkResilience(path, rt, gauges)
	}
	if *integrity {
		bad += checkIntegrity(path, rt, gauges)
	}
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

// checkResilience validates the supervision metrics' value domains per
// label set: breaker states must name a real state, the degraded gauge
// is boolean, and the supervision counters can never go negative.
func checkResilience(path string, counters, gauges []point) int {
	bad := 0
	for _, p := range gauges {
		switch p.Name {
		case "serve.breaker_state":
			if p.Value < 0 || p.Value > 2 {
				fmt.Fprintf(os.Stderr, "metricscheck: %s: gauge %q%v = %d, want 0 (closed), 1 (open), or 2 (half-open)\n",
					path, p.Name, p.Labels, p.Value)
				bad++
			}
		case "serve.degraded":
			if p.Value != 0 && p.Value != 1 {
				fmt.Fprintf(os.Stderr, "metricscheck: %s: gauge %q%v = %d, want 0 or 1\n",
					path, p.Name, p.Labels, p.Value)
				bad++
			}
		}
	}
	for _, p := range counters {
		if !strings.HasPrefix(p.Name, "serve.breaker_") &&
			!strings.HasPrefix(p.Name, "serve.degrade") &&
			!strings.HasPrefix(p.Name, "serve.recover_") {
			continue
		}
		if p.Value < 0 {
			fmt.Fprintf(os.Stderr, "metricscheck: %s: counter %q%v = %d, want >= 0\n",
				path, p.Name, p.Labels, p.Value)
			bad++
		}
	}
	return bad
}

// checkIntegrity validates the integrity layer's metric domains: the
// quarantined gauge is boolean, counters never go negative, and the
// lifecycle accounting holds — a heal requires a quarantine, and a
// quarantine requires a detection (scrub mismatch or canary failure).
func checkIntegrity(path string, counters, gauges []point) int {
	bad := 0
	for _, p := range gauges {
		if p.Name == "integrity.quarantined" && p.Value != 0 && p.Value != 1 {
			fmt.Fprintf(os.Stderr, "metricscheck: %s: gauge %q%v = %d, want 0 or 1\n",
				path, p.Name, p.Labels, p.Value)
			bad++
		}
	}
	sums := make(map[string]int64)
	for _, p := range counters {
		if !strings.HasPrefix(p.Name, "integrity.") {
			continue
		}
		if p.Value < 0 {
			fmt.Fprintf(os.Stderr, "metricscheck: %s: counter %q%v = %d, want >= 0\n",
				path, p.Name, p.Labels, p.Value)
			bad++
		}
		sums[p.Name] += p.Value
	}
	if heals, quars := sums["integrity.heals"], sums["integrity.quarantines"]; heals > quars {
		fmt.Fprintf(os.Stderr, "metricscheck: %s: integrity.heals %d exceeds integrity.quarantines %d\n",
			path, heals, quars)
		bad++
	}
	if quars, detections := sums["integrity.quarantines"], sums["integrity.scrub_mismatches"]+sums["integrity.canary_failures"]; quars > detections {
		fmt.Fprintf(os.Stderr, "metricscheck: %s: integrity.quarantines %d exceeds detections %d (scrub mismatches + canary failures)\n",
			path, quars, detections)
		bad++
	}
	return bad
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metricscheck: "+format+"\n", args...)
	os.Exit(1)
}
