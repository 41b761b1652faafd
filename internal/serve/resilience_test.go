package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"snapea/internal/faults"
	"snapea/internal/models"
)

// postPredict posts one request and returns the status, decoded body
// (when 200), and the Retry-After header.
func postPredict(t *testing.T, url, model, mode string, body []byte) (int, predictResponse, string) {
	t.Helper()
	u := url + "/v1/predict?model=" + model
	if mode != "" {
		u += "&mode=" + mode
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr predictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, pr, resp.Header.Get("Retry-After")
}

func modelElems(t *testing.T, name string) int {
	t.Helper()
	m, err := models.Build(name, models.Options{Seed: 1, SkipInit: true})
	if err != nil {
		t.Fatal(err)
	}
	return m.InputShape.Elems()
}

// tinyParams writes a params file for tinynet's conv1 (8 kernels) with
// the given threshold and returns its path. Th = +1e6 makes every
// speculation window predict zero — the pathological plan that trips
// the accuracy guardrail — while Th = -1e6 never predicts zero, a
// healthy (if useless) predictive plan with zero mispredictions.
func tinyParams(t *testing.T, dir string, th float64) string {
	t.Helper()
	kernels := make([]map[string]any, 8)
	for i := range kernels {
		kernels[i] = map[string]any{"Th": th, "N": 1}
	}
	data, err := json.Marshal(map[string]any{
		"network":           "tinynet",
		"epsilon":           0.03,
		"base_accuracy":     0,
		"final_accuracy":    0,
		"predictive_layers": []string{"conv1"},
		"layers":            map[string]any{"conv1": kernels},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tinynet-params.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBreakerOpensAndRecovers drives the full breaker cycle over HTTP:
// an injected fault storm fails forwards until the breaker opens (503 +
// Retry-After without running a forward), and once the storm passes
// half-open probes close it again — self-healing, no restart.
func TestBreakerOpensAndRecovers(t *testing.T) {
	enableMetrics(t)
	s, ts := testServer(t, Config{
		Models:          []string{"tinynet"},
		BreakerFailures: 3,
		Faults:          faults.Config{Seed: 7, ServeErrRate: 1, ServeLimit: 3},
	})
	clock := fakeClockOn(s)
	body := jsonBody(t, tinyElems(t), 3).Bytes()

	// Three faulted forwards: 500s that count as breaker failures.
	for i := 0; i < 3; i++ {
		code, _, _ := postPredict(t, ts.URL, "tinynet", "", body)
		if code != http.StatusInternalServerError {
			t.Fatalf("faulted request %d: status %d, want 500", i, code)
		}
	}
	// Breaker open: immediate 503 with a Retry-After hint.
	code, _, ra := postPredict(t, ts.URL, "tinynet", "", body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d, want 503", code)
	}
	if ra == "" {
		t.Fatal("open breaker 503 without Retry-After")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q: want a positive whole-second value", ra)
	}

	// After the open interval probes are admitted one at a time; the
	// fault budget is exhausted, so they succeed and close the breaker.
	clock.Advance(breakerOpenFor)
	for i := 0; i < breakerProbes; i++ {
		code, _, _ = postPredict(t, ts.URL, "tinynet", "", body)
		if code != http.StatusOK {
			t.Fatalf("half-open probe %d: status %d, want 200", i, code)
		}
	}

	// /v1/models reports the restored breaker.
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, mi := range out.Models {
		if mi.Breaker != "closed" {
			t.Fatalf("%s/%s breaker %q after recovery, want closed", mi.Model, mi.Mode, mi.Breaker)
		}
	}
	for _, name := range []string{"serve.requests", "serve.batch_failures", "serve.breaker_opens", "serve.breaker_transitions", "serve.breaker_rejects"} {
		if runtimeCounter(name) <= 0 {
			t.Errorf("%s = 0 after a breaker cycle", name)
		}
	}
	assertHealthMetrics(t)
}

// TestWatchdogIsolatesHungModel wedges tinynet with an injected stuck
// forward and asserts the bulkhead: lenet keeps serving while tinynet's
// forward hangs, the hung request fails with a 504 at its deadline, long
// before the injected delay ends, and tinynet itself serves again on the
// next (clean) forward.
func TestWatchdogIsolatesHungModel(t *testing.T) {
	enableMetrics(t)
	const delay = 3 * time.Second
	s, ts := testServer(t, Config{
		Models:         []string{"tinynet", "lenet"},
		RequestTimeout: 500 * time.Millisecond,
		Faults: faults.Config{
			Seed:        7,
			ServeDelay:  delay,
			ServeLimit:  1,
			ServeTarget: "tinynet/exact",
		},
	})
	preload(t, s)
	tinyBody := jsonBody(t, tinyElems(t), 3).Bytes()
	lenetBody := jsonBody(t, modelElems(t, "lenet"), 4).Bytes()

	var wg sync.WaitGroup
	var hungCode int
	var hungFor time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		hungCode = postStatus(t, ts.URL, tinyBody)
		hungFor = time.Since(start)
	}()

	// While tinynet's forward is wedged, lenet must keep answering.
	for i := 0; i < 3; i++ {
		if code, _, _ := postPredict(t, ts.URL, "lenet", "", lenetBody); code != http.StatusOK {
			t.Fatalf("lenet during wedge: status %d", code)
		}
	}
	wg.Wait()
	if hungCode != http.StatusGatewayTimeout {
		t.Fatalf("hung tinynet request: status %d, want 504", hungCode)
	}
	if hungFor >= delay {
		t.Fatalf("hung request answered after %v, not at its deadline", hungFor)
	}

	// The fault budget (1) is spent and the abandoned forward gave its
	// slot back: the next tinynet forward runs clean.
	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", tinyBody); code != http.StatusOK {
		t.Fatalf("tinynet after wedge: status %d, want 200", code)
	}
	for _, name := range []string{"serve.watchdog_timeouts", "serve.batch_failures"} {
		if got := runtimeCounter(name); got != 1 {
			t.Errorf("%s = %d, want 1 (the one wedged forward)", name, got)
		}
	}
	assertHealthMetrics(t)
}

// TestServePanicAnswers500 injects a panic into a serving forward: the
// request is answered with a 500, the breaker records the failure (with
// a one-failure threshold the next request is shed with a 503), and once
// the open interval passes the model serves again.
func TestServePanicAnswers500(t *testing.T) {
	s, ts := testServer(t, Config{
		Models:          []string{"tinynet"},
		BreakerFailures: 1,
		Faults:          faults.Config{Seed: 7, ServePanicRate: 1, ServeLimit: 1},
	})
	clock := fakeClockOn(s)
	body := jsonBody(t, tinyElems(t), 3).Bytes()

	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", body); code != http.StatusInternalServerError {
		t.Fatalf("panicked forward: status %d, want 500", code)
	}
	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", body); code != http.StatusServiceUnavailable {
		t.Fatalf("after the panic: status %d, want 503 from the opened breaker", code)
	}
	clock.Advance(breakerOpenFor)
	awaitTrue(t, 5*time.Second, "the model to serve again", func() bool {
		code, _, _ := postPredict(t, ts.URL, "tinynet", "", body)
		return code == http.StatusOK
	})
}

// TestBreakerProbeNotTakenByBadRequest: a request that never runs must
// not hold the half-open probe slot. A malformed body arriving once the
// open interval has passed is answered 400 without asking the breaker,
// so the valid request after it is the probe and gets its 200.
func TestBreakerProbeNotTakenByBadRequest(t *testing.T) {
	s, ts := testServer(t, Config{
		Models:          []string{"tinynet"},
		BreakerFailures: 1,
		Faults:          faults.Config{Seed: 7, ServeErrRate: 1, ServeLimit: 1},
	})
	clock := fakeClockOn(s)
	body := jsonBody(t, tinyElems(t), 3).Bytes()

	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", body); code != http.StatusInternalServerError {
		t.Fatalf("faulted forward: status %d, want 500", code)
	}
	clock.Advance(breakerOpenFor) // wait out the open interval
	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", []byte(`{"input":`)); code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", code)
	}
	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", body); code != http.StatusOK {
		t.Fatalf("valid request after the malformed one: status %d, want 200", code)
	}
}

// TestRetryAfterRoundsUp: a hint is whole seconds rounded up, so a client
// that honors it never returns before the wait is over, and never less
// than one.
func TestRetryAfterRoundsUp(t *testing.T) {
	for _, c := range []struct {
		wait time.Duration
		want string
	}{
		{0, "1"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
	} {
		if got := retryAfter(c.wait); got != c.want {
			t.Errorf("retryAfter(%v) = %q, want %q", c.wait, got, c.want)
		}
	}
}

// TestRegistryTransientParamsRetry: an unreadable params file must not
// be cached forever — the next request retries the compile and succeeds
// once the file appears. A permanent error (malformed content) stays
// cached.
func TestRegistryTransientParamsRetry(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tinynet-params.json")
	s, ts := testServer(t, Config{
		ParamsFiles: map[string]string{"tinynet": path},
	})
	body := jsonBody(t, tinyElems(t), 3).Bytes()

	// The file does not exist yet: a transient failure, surfaced as 500.
	if code, _, _ := postPredict(t, ts.URL, "tinynet", ModePredictive, body); code != http.StatusInternalServerError {
		t.Fatalf("missing params: status %d, want 500", code)
	}
	first := s.reg.compiles.Load()
	if first == 0 {
		t.Fatal("no compile attempt recorded")
	}

	// The params sync lands; the next request must retry, not replay the
	// cached error.
	good := tinyParams(t, dir, -1e6)
	if good != path {
		t.Fatalf("params path mismatch: %s vs %s", good, path)
	}
	if code, pr, _ := postPredict(t, ts.URL, "tinynet", ModePredictive, body); code != http.StatusOK {
		t.Fatalf("after params appeared: status %d, want 200", code)
	} else if pr.Mode != ModePredictive {
		t.Fatalf("served mode %q", pr.Mode)
	}
	if got := s.reg.compiles.Load(); got <= first {
		t.Fatalf("transient failure was not recompiled (compiles %d -> %d)", first, got)
	}

	// Permanent failure: malformed content is cached, no recompile loop.
	badPath := filepath.Join(dir, "bad-params.json")
	if err := os.WriteFile(badPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := testServer(t, Config{
		ParamsFiles: map[string]string{"tinynet": badPath},
	})
	for i := 0; i < 2; i++ {
		if code, _, _ := postPredict(t, ts2.URL, "tinynet", ModePredictive, body); code != http.StatusInternalServerError {
			t.Fatalf("malformed params request %d: status %d, want 500", i, code)
		}
	}
	if got := s2.reg.compiles.Load(); got != 1 {
		t.Fatalf("permanent failure recompiled %d times, want 1 (cached)", got)
	}
}

// TestGuardrailDegradesAndRecovers serves tinynet through a
// pathological predictive plan (Th so high every window is speculated
// to zero) and asserts the accuracy guardrail: the first audited forward
// observes the misprediction rate blowing the budget and degrades the
// model to exact execution (responses flagged degraded), and after the
// cooldown the model probes predictive mode again. Every response is a
// 200: the guardrail trades MAC savings for accuracy, never availability.
func TestGuardrailDegradesAndRecovers(t *testing.T) {
	enableMetrics(t)
	dir := t.TempDir()
	path := tinyParams(t, dir, 1e6)
	s, ts := testServer(t, Config{
		Models:           []string{"tinynet"},
		ParamsFiles:      map[string]string{"tinynet": path},
		MispredictBudget: 0.05,
		AuditEvery:       1,
	})
	if err := s.Preload(context.Background()); err != nil {
		t.Fatal(err)
	}
	body := jsonBody(t, tinyElems(t), 3).Bytes()

	// Forward 0 is audited: every window speculates to zero, so any truly
	// positive window is a misprediction — far over the 5% budget. The
	// response itself ran predictively; degradation applies from the
	// next forward.
	code, pr, _ := postPredict(t, ts.URL, "tinynet", ModePredictive, body)
	if code != http.StatusOK {
		t.Fatalf("audited forward: status %d", code)
	}
	if pr.Degraded {
		t.Fatal("audited forward itself flagged degraded")
	}

	// /readyz and /v1/models surface the degradation.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(rz), "tinynet/predictive breaker=closed degraded=true") {
		t.Fatalf("readyz after degrade:\n%s", rz)
	}

	// The cooldown's degraded forwards all serve through the exact
	// fallback and say so — in the body and in the X-Snapea-Degraded
	// response header the gateway reads.
	for i := 0; i < guardCooldown; i++ {
		hr, err := http.Post(ts.URL+"/v1/predict?model=tinynet&mode="+ModePredictive,
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var pr predictResponse
		derr := json.NewDecoder(hr.Body).Decode(&pr)
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK || derr != nil {
			t.Fatalf("degraded forward %d: status %d, decode %v", i, hr.StatusCode, derr)
		}
		if !pr.Degraded {
			t.Fatalf("degraded forward %d not flagged", i)
		}
		if got := hr.Header.Get("X-Snapea-Degraded"); got != "1" {
			t.Fatalf("degraded forward %d: X-Snapea-Degraded %q, want %q", i, got, "1")
		}
	}

	// Recovered: the next forward runs predictively again (it is also the
	// next audit, which will re-degrade — hysteresis needs MinWindows of
	// fresh evidence, which one tinynet forward provides — but this forward
	// itself is served predictive).
	code, pr, _ = postPredict(t, ts.URL, "tinynet", ModePredictive, body)
	if code != http.StatusOK {
		t.Fatalf("post-recovery forward: status %d", code)
	}
	if pr.Degraded {
		t.Fatal("post-recovery forward still degraded")
	}
	for _, name := range []string{"serve.audit_batches", "serve.audit_mispredictions", "serve.degrade_events", "serve.degraded_batches", "serve.recover_events"} {
		if runtimeCounter(name) <= 0 {
			t.Errorf("%s = 0 after a degrade and recovery", name)
		}
	}
	assertHealthMetrics(t)
}
