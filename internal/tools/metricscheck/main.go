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
// With -gateway it validates the cluster tier's metrics the same way:
// gateway.replica_breaker_state must hold a valid state,
// gateway.replicas_healthy can never exceed gateway.replicas, every
// gateway.* counter is non-negative, and the hedge accounting must be
// internally consistent (hedges_won + hedges_wasted ≤ hedges_fired).
//
// With -integrity it validates the integrity layer's metrics: the
// integrity.quarantined gauge is boolean per label set, every
// integrity.* counter is non-negative, and the detect→quarantine→heal
// accounting is internally consistent (heals never exceed quarantines,
// and every quarantine traces back to a scrub mismatch or canary
// failure). The integrity smoke runs it on every phase's snapshot.
//
// -max-ratio NUM/DEN=LIMIT asserts that the runtime counter NUM summed
// across label sets is at most LIMIT times the runtime counter DEN —
// the cluster smoke uses it to prove the hedge budget held
// (gateway.hedges_fired/gateway.requests ≤ the configured budget).
//
//	snapea-bench -exp fig8 -metrics snap.json
//	go run ./internal/tools/metricscheck -nonzero engine.windows,sim.cycles snap.json
//	go run ./internal/tools/metricscheck -nonzero-runtime serve.requests,serve.batches serve.json
//	go run ./internal/tools/metricscheck -resilience -nonzero-runtime serve.breaker_opens chaos.json
//	go run ./internal/tools/metricscheck -gateway -max-ratio gateway.hedges_fired/gateway.requests=0.1 gw.json
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
	gateway := flag.Bool("gateway", false, "validate the gateway.* cluster-tier metrics' value domains and hedge accounting")
	integrity := flag.Bool("integrity", false, "validate the integrity.* metrics' value domains and quarantine/heal accounting")
	maxRatio := flag.String("max-ratio", "", "comma-separated NUM/DEN=LIMIT assertions over runtime counters (e.g. gateway.hedges_fired/gateway.requests=0.1)")
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
	if *gateway {
		bad += checkGateway(path, rt, gauges)
	}
	if *integrity {
		bad += checkIntegrity(path, rt, gauges)
	}
	bad += checkRatios(path, rt, *maxRatio)
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

// checkGateway validates the cluster tier's metric domains: breaker
// states are real states, the healthy-replica gauge never exceeds the
// membership gauge, counters are non-negative, and hedge accounting is
// internally consistent (every hedge that won or was wasted must have
// been fired first).
func checkGateway(path string, counters, gauges []point) int {
	bad := 0
	var replicas, healthy int64
	for _, p := range gauges {
		switch p.Name {
		case "gateway.replica_breaker_state":
			if p.Value < 0 || p.Value > 2 {
				fmt.Fprintf(os.Stderr, "metricscheck: %s: gauge %q%v = %d, want 0 (closed), 1 (open), or 2 (half-open)\n",
					path, p.Name, p.Labels, p.Value)
				bad++
			}
		case "gateway.replicas":
			replicas = p.Value
		case "gateway.replicas_healthy":
			healthy = p.Value
		}
	}
	if healthy > replicas {
		fmt.Fprintf(os.Stderr, "metricscheck: %s: gateway.replicas_healthy %d exceeds gateway.replicas %d\n",
			path, healthy, replicas)
		bad++
	}
	sums := make(map[string]int64)
	for _, p := range counters {
		if !strings.HasPrefix(p.Name, "gateway.") {
			continue
		}
		if p.Value < 0 {
			fmt.Fprintf(os.Stderr, "metricscheck: %s: counter %q%v = %d, want >= 0\n",
				path, p.Name, p.Labels, p.Value)
			bad++
		}
		sums[p.Name] += p.Value
	}
	if settled, fired := sums["gateway.hedges_won"]+sums["gateway.hedges_wasted"], sums["gateway.hedges_fired"]; settled > fired {
		fmt.Fprintf(os.Stderr, "metricscheck: %s: hedges won+wasted = %d exceeds hedges fired %d\n",
			path, settled, fired)
		bad++
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

// checkRatios parses the -max-ratio assertions and verifies each one
// against the runtime counters, returning the number of failures. A
// missing numerator counts as zero (a budget of hedges that never fired
// is trivially held); a missing or zero denominator fails the check,
// since the ratio is then meaningless.
func checkRatios(path string, counters []point, spec string) int {
	sums := make(map[string]int64)
	for _, p := range counters {
		sums[p.Name] += p.Value
	}
	bad := 0
	for _, assertion := range strings.Split(spec, ",") {
		assertion = strings.TrimSpace(assertion)
		if assertion == "" {
			continue
		}
		expr, limitStr, ok := strings.Cut(assertion, "=")
		num, den, ok2 := strings.Cut(expr, "/")
		if !ok || !ok2 {
			fail("bad -max-ratio entry %q (want NUM/DEN=LIMIT)", assertion)
		}
		var limit float64
		if _, err := fmt.Sscanf(limitStr, "%g", &limit); err != nil {
			fail("bad -max-ratio limit %q: %v", limitStr, err)
		}
		d, okDen := sums[den]
		if !okDen || d == 0 {
			fmt.Fprintf(os.Stderr, "metricscheck: %s: ratio denominator %q missing or zero\n", path, den)
			bad++
			continue
		}
		if ratio := float64(sums[num]) / float64(d); ratio > limit {
			fmt.Fprintf(os.Stderr, "metricscheck: %s: %s/%s = %d/%d = %.4f, want <= %g\n",
				path, num, den, sums[num], d, ratio, limit)
			bad++
		}
	}
	return bad
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metricscheck: "+format+"\n", args...)
	os.Exit(1)
}
