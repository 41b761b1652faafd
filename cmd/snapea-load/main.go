// Command snapea-load drives snapea-serve with synthetic traffic and
// reports latency percentiles and throughput — the measurement side of
// the serving subsystem.
//
//	snapea-load -url http://localhost:8080 -model tinynet -n 500 -c 8
//	snapea-load -url http://localhost:8080 -n 1000 -rate 200      # open loop, 200 req/s
//	snapea-load -url http://localhost:8080 -body raw -out load.json
//
// Closed loop (-c) keeps a fixed number of in-flight requests; open loop
// (-rate) fires at a fixed arrival rate regardless of completions — the
// harsher model of production traffic. Every response must carry a
// status in -allow (default 200,429) or the tool exits nonzero, which
// lets CI assert "all 2xx/429" over a whole run. The summary is printed
// as a table and optionally written as JSON (atomically) with -out.
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snapea/internal/atomicfile"
	"snapea/internal/cli"
	"snapea/internal/models"
	"snapea/internal/report"
	"snapea/internal/tensor"
)

// Summary is the machine-readable load report (-out).
type Summary struct {
	URL              string         `json:"url"`
	Model            string         `json:"model"`
	Mode             string         `json:"mode"`
	Body             string         `json:"body"`
	Requests         int            `json:"requests"`
	Concurrency      int            `json:"concurrency,omitempty"`
	RateRPS          float64        `json:"rate_rps,omitempty"`
	DurationS        float64        `json:"duration_s"`
	ThroughputRPS    float64        `json:"throughput_rps"`
	StatusCounts     map[string]int `json:"status_counts"`
	TransportErrors  int            `json:"transport_errors"`
	Disallowed       int            `json:"disallowed"`
	P50MS            float64        `json:"p50_ms"`
	P95MS            float64        `json:"p95_ms"`
	P99MS            float64        `json:"p99_ms"`
	MeanMS           float64        `json:"mean_ms"`
	MaxMS            float64        `json:"max_ms"`
	MeanMacReduction float64        `json:"mean_mac_reduction"`
	// Retries counts closed-loop re-sends after a 429/503 answer; the
	// final attempt's status is what StatusCounts records.
	Retries int `json:"retries,omitempty"`
	// RetryStatusCounts breaks Retries down by the status that triggered
	// each re-send. Behind a gateway this is what separates replica
	// admission pushback (429) from fleet-level unavailability (503) —
	// StatusCounts alone can't, since it only sees final attempts.
	RetryStatusCounts map[string]int `json:"retry_status_counts,omitempty"`
}

// retryStats accumulates the closed-loop retry breakdown across workers.
type retryStats struct {
	mu       sync.Mutex
	total    int
	byStatus map[string]int
}

func (rs *retryStats) record(status int) {
	rs.mu.Lock()
	rs.total++
	rs.byStatus[strconv.Itoa(status)]++
	rs.mu.Unlock()
}

// outcome is one request's measurement (of its final attempt, when the
// closed loop retried).
type outcome struct {
	status     int
	ms         float64
	reduction  float64
	retryAfter time.Duration // parsed Retry-After hint, 0 if absent
	err        error
}

func main() {
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: the summary table goes to stdout, progress
// and errors to stderr. Bad flags exit 2 before any request. It returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snapea-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://localhost:8080", "base URL of snapea-serve")
	model := fs.String("model", "tinynet", "model to request")
	mode := fs.String("mode", "exact", "execution mode: exact or predictive")
	n := fs.Int("n", 500, "total requests (> 0)")
	c := fs.Int("c", 8, "closed-loop concurrency (ignored with -rate)")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
	body := fs.String("body", "json", "request body encoding: json or raw")
	retries := fs.Int("retries", 3, "closed-loop retries per request on 429/503, honoring Retry-After with jittered exponential backoff (0 disables; open loop never retries)")
	seed := fs.Uint64("seed", 42, "input-generation seed")
	warmup := fs.Int("warmup", 0, "untimed warmup requests before the measured run")
	waitReady := fs.Duration("wait-ready", 30*time.Second, "poll /readyz this long before starting (0 = skip)")
	allow := fs.String("allow", "200,429", "comma-separated statuses that do not fail the run")
	out := fs.String("out", "", "write the summary JSON here (atomically)")
	scale := cli.ScaleFlag(fs, models.Reduced, "model scale (must match the server): reduced or full")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	obs := cli.ObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var allowed map[int]bool
	var err error
	switch {
	case !slices.Contains(models.Names(), *model):
		err = fmt.Errorf("unknown -model %q", *model)
	case *n <= 0:
		err = fmt.Errorf("-n %d: want at least one request", *n)
	case *body != "json" && *body != "raw":
		err = fmt.Errorf("unknown -body %q (want json or raw)", *body)
	default:
		allowed, err = parseAllow(*allow)
	}
	if err != nil {
		fmt.Fprintln(stderr, "snapea-load:", err)
		fs.Usage()
		return 2
	}
	if *c < 1 {
		*c = 1
	}

	obsStop, err := obs.Start("snapea-load")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer obsStop()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "snapea-load: "+format+"\n", args...)
		return 1
	}

	// The input shape comes from a weightless local build of the same
	// model — no extra server round-trip, no weight-init cost.
	m, err := models.Build(*model, models.Options{Scale: *scale, Seed: *seed, SkipInit: true})
	if err != nil {
		return fail("%v", err)
	}
	bodies, contentType, err := makeBodies(m.InputShape.Elems(), *body, *seed)
	if err != nil {
		return fail("%v", err)
	}

	client := &http.Client{}
	target := fmt.Sprintf("%s/v1/predict?model=%s&mode=%s", strings.TrimRight(*url, "/"), *model, *mode)

	if *waitReady > 0 {
		if err := pollReady(ctx, client, strings.TrimRight(*url, "/")+"/readyz", *waitReady); err != nil {
			return fail("%v", err)
		}
	}
	for i := 0; i < *warmup; i++ {
		fire(ctx, client, target, contentType, bodies[i%len(bodies)])
	}

	outcomes := make([]outcome, *n)
	retried := &retryStats{byStatus: make(map[string]int)}
	start := time.Now()
	if *rate > 0 {
		// Open loop never retries: a retry is an extra arrival, and the
		// whole point of -rate is a fixed arrival schedule.
		runOpenLoop(ctx, client, target, contentType, bodies, outcomes, *rate)
	} else {
		runClosedLoop(ctx, client, target, contentType, bodies, outcomes, *c, *retries, *seed, retried)
	}
	elapsed := time.Since(start)

	if err := ctx.Err(); err != nil {
		fmt.Fprintf(stderr, "snapea-load: interrupted: %v\n", err)
		return 3
	}

	sum := summarize(outcomes, allowed)
	sum.Retries = retried.total
	if len(retried.byStatus) > 0 {
		sum.RetryStatusCounts = retried.byStatus
	}
	sum.URL = *url
	sum.Model = *model
	sum.Mode = *mode
	sum.Body = *body
	sum.Requests = *n
	sum.DurationS = elapsed.Seconds()
	sum.ThroughputRPS = float64(*n) / elapsed.Seconds()
	if *rate > 0 {
		sum.RateRPS = *rate
	} else {
		sum.Concurrency = *c
	}
	render(sum, stdout)

	if *out != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return fail("%v", err)
		}
		if err := atomicfile.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stderr, "snapea-load: summary written to %s\n", *out)
	}
	if sum.TransportErrors > 0 || sum.Disallowed > 0 {
		return fail("%d transport errors, %d responses outside -allow %s",
			sum.TransportErrors, sum.Disallowed, *allow)
	}
	return 0
}

// parseAllow parses -allow's comma-separated status codes.
func parseAllow(list string) (map[int]bool, error) {
	allowed := map[int]bool{}
	for _, s := range strings.Split(list, ",") {
		code, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad -allow entry %q", s)
		}
		allowed[code] = true
	}
	return allowed, nil
}

// makeBodies pre-encodes a cycle of distinct inputs so the measured loop
// does no generation work.
func makeBodies(elems int, encoding string, seed uint64) ([][]byte, string, error) {
	const variants = 16
	rng := tensor.NewRNG(seed)
	bodies := make([][]byte, variants)
	for v := range bodies {
		in := make([]float32, elems)
		t := tensor.Wrap(tensor.Shape{N: 1, C: elems, H: 1, W: 1}, in)
		tensor.FillNorm(t, rng, 0, 1)
		switch encoding {
		case "raw":
			raw := make([]byte, elems*4)
			for i, f := range in {
				binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(f))
			}
			bodies[v] = raw
		case "json":
			data, err := json.Marshal(map[string]any{"input": in})
			if err != nil {
				return nil, "", err
			}
			bodies[v] = data
		default:
			return nil, "", fmt.Errorf("unknown -body %q (want json or raw)", encoding)
		}
	}
	if encoding == "raw" {
		return bodies, "application/octet-stream", nil
	}
	return bodies, "application/json", nil
}

func pollReady(ctx context.Context, client *http.Client, url string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %s (%s)", wait, url)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// fire issues one request and parses the predict response when 200.
func fire(ctx context.Context, client *http.Client, target, contentType string, body []byte) outcome {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	if err != nil {
		return outcome{err: err, ms: float64(time.Since(start)) / float64(time.Millisecond)}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(strings.TrimSpace(s)); err == nil && secs > 0 {
			o.retryAfter = time.Duration(secs) * time.Second
		}
	}
	if resp.StatusCode == http.StatusOK {
		var pr struct {
			MacReduction float64 `json:"mac_reduction"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&pr); err == nil {
			o.reduction = pr.MacReduction
		}
	}
	o.ms = float64(time.Since(start)) / float64(time.Millisecond)
	return o
}

// runClosedLoop keeps c requests in flight until n are done. A 429
// (queue full) or 503 (draining, circuit open) answer is retried up to
// retries times with jittered exponential backoff, honoring the
// server's Retry-After hint when present — the well-behaved-client
// protocol the server's admission control assumes.
func runClosedLoop(ctx context.Context, client *http.Client, target, contentType string, bodies [][]byte, outcomes []outcome, c, retries int, seed uint64, retried *retryStats) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed) + int64(w)))
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(outcomes) {
					return
				}
				outcomes[i] = fireRetry(ctx, client, target, contentType, bodies[i%len(bodies)], retries, rng, retried)
			}
		}(w)
	}
	wg.Wait()
}

// fireRetry issues one request, re-sending on 429/503 with backoff. The
// base wait is the server's Retry-After when it sent one, else an
// exponential schedule from 50ms; either way the actual sleep is
// full-jittered into [base/2, base] so a fleet of backed-off clients
// does not return in lockstep.
func fireRetry(ctx context.Context, client *http.Client, target, contentType string, body []byte, retries int, rng *rand.Rand, retried *retryStats) outcome {
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		o := fire(ctx, client, target, contentType, body)
		if o.err != nil || attempt >= retries ||
			(o.status != http.StatusTooManyRequests && o.status != http.StatusServiceUnavailable) {
			return o
		}
		wait := backoff
		if o.retryAfter > 0 {
			wait = o.retryAfter
		}
		wait = wait/2 + time.Duration(rng.Int63n(int64(wait/2)+1))
		retried.record(o.status)
		select {
		case <-ctx.Done():
			return o
		case <-time.After(wait):
		}
		backoff *= 2
	}
}

// runOpenLoop fires requests at a fixed arrival rate, regardless of how
// fast the server answers.
func runOpenLoop(ctx context.Context, client *http.Client, target, contentType string, bodies [][]byte, outcomes []outcome, rate float64) {
	interval := time.Duration(float64(time.Second) / rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	for i := range outcomes {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-ticker.C:
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = fire(ctx, client, target, contentType, bodies[i%len(bodies)])
		}(i)
	}
	wg.Wait()
}

func summarize(outcomes []outcome, allowed map[int]bool) Summary {
	sum := Summary{StatusCounts: make(map[string]int)}
	var okLat []float64
	var redSum float64
	var redN int
	for _, o := range outcomes {
		if o.err != nil {
			sum.TransportErrors++
			continue
		}
		sum.StatusCounts[strconv.Itoa(o.status)]++
		if !allowed[o.status] {
			sum.Disallowed++
		}
		if o.status == http.StatusOK {
			okLat = append(okLat, o.ms)
			redSum += o.reduction
			redN++
		}
	}
	if len(okLat) > 0 {
		sum.P50MS = report.Percentile(okLat, 0.50)
		sum.P95MS = report.Percentile(okLat, 0.95)
		sum.P99MS = report.Percentile(okLat, 0.99)
		sort.Float64s(okLat)
		sum.MaxMS = okLat[len(okLat)-1]
		var total float64
		for _, v := range okLat {
			total += v
		}
		sum.MeanMS = total / float64(len(okLat))
	}
	if redN > 0 {
		sum.MeanMacReduction = redSum / float64(redN)
	}
	return sum
}

func render(sum Summary, w io.Writer) {
	t := report.Table{
		Title:   fmt.Sprintf("snapea-load: %s mode=%s (%d requests)", sum.Model, sum.Mode, sum.Requests),
		Headers: []string{"Metric", "Value"},
	}
	t.Add("throughput", fmt.Sprintf("%.1f req/s", sum.ThroughputRPS))
	t.Add("p50 latency", fmt.Sprintf("%.2f ms", sum.P50MS))
	t.Add("p95 latency", fmt.Sprintf("%.2f ms", sum.P95MS))
	t.Add("p99 latency", fmt.Sprintf("%.2f ms", sum.P99MS))
	t.Add("mean / max", fmt.Sprintf("%.2f / %.2f ms", sum.MeanMS, sum.MaxMS))
	t.Add("mean MAC reduction", report.Pct(sum.MeanMacReduction))
	var codes []string
	for code := range sum.StatusCounts {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		t.Add("status "+code, strconv.Itoa(sum.StatusCounts[code]))
	}
	if sum.Retries > 0 {
		t.Add("retries", strconv.Itoa(sum.Retries))
		var rcodes []string
		for code := range sum.RetryStatusCounts {
			rcodes = append(rcodes, code)
		}
		sort.Strings(rcodes)
		for _, code := range rcodes {
			t.Add("  retried on "+code, strconv.Itoa(sum.RetryStatusCounts[code]))
		}
	}
	if sum.TransportErrors > 0 {
		t.Add("transport errors", strconv.Itoa(sum.TransportErrors))
	}
	t.Render(w)
}
