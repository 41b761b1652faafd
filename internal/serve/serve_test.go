package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"snapea/internal/faults"
	"snapea/internal/metrics"
	"snapea/internal/models"
	"snapea/internal/tensor"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func jsonBody(t *testing.T, elems int, seed uint64) *bytes.Buffer {
	t.Helper()
	in := make([]float32, elems)
	tensor.FillNorm(tensor.Wrap(tensor.Shape{N: 1, C: elems, H: 1, W: 1}, in), tensor.NewRNG(seed), 0, 1)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"input": in}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func tinyElems(t *testing.T) int {
	t.Helper()
	m, err := models.Build("tinynet", models.Options{Seed: 1, SkipInit: true})
	if err != nil {
		t.Fatal(err)
	}
	return m.InputShape.Elems()
}

func TestPredictEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Models: []string{"tinynet"}})
	elems := tinyElems(t)

	resp, err := http.Post(ts.URL+"/v1/predict?model=tinynet", "application/json", jsonBody(t, elems, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "tinynet" || pr.Mode != ModeExact {
		t.Fatalf("response identity: %+v", pr)
	}
	if len(pr.Logits) != 10 || pr.Class < 0 || pr.Class > 9 {
		t.Fatalf("logits/class: %+v", pr)
	}
	if pr.BatchSize < 1 || pr.TotalUS <= 0 {
		t.Fatalf("timing/batch fields: %+v", pr)
	}
	// The per-response observability headers mirror the body: batch size
	// as an integer, degrade flag as 0/1 (the gateway reads these without
	// parsing JSON).
	if bs, err := strconv.Atoi(resp.Header.Get("X-Snapea-Batch-Size")); err != nil || bs != pr.BatchSize {
		t.Fatalf("X-Snapea-Batch-Size %q, want %d", resp.Header.Get("X-Snapea-Batch-Size"), pr.BatchSize)
	}
	if got := resp.Header.Get("X-Snapea-Degraded"); got != "0" {
		t.Fatalf("X-Snapea-Degraded %q, want %q on a healthy model", got, "0")
	}
	if pr.MacReduction < 0 || pr.MacReduction >= 1 {
		t.Fatalf("mac_reduction out of range: %v", pr.MacReduction)
	}
}

func TestPredictRawBody(t *testing.T) {
	_, ts := testServer(t, Config{Models: []string{"tinynet"}})
	elems := tinyElems(t)

	raw := make([]byte, elems*4)
	for i := 0; i < elems; i++ {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(float32(i%7)-3))
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	// Wrong byte count must be a 400, not an engine panic.
	resp2, err := http.Post(ts.URL+"/v1/predict", "application/octet-stream", bytes.NewReader(raw[:8]))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated raw body: status %d, want 400", resp2.StatusCode)
	}
}

func TestPredictValidation(t *testing.T) {
	_, ts := testServer(t, Config{Models: []string{"tinynet"}})
	elems := tinyElems(t)

	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"unknown model", "/v1/predict?model=nosuch", `{"input":[1]}`, http.StatusNotFound},
		{"bad mode", "/v1/predict?model=tinynet&mode=psychic", `{"input":[1]}`, http.StatusBadRequest},
		{"predictive without params", "/v1/predict?model=tinynet&mode=predictive", `{"input":[1]}`, http.StatusBadRequest},
		{"wrong input size", "/v1/predict?model=tinynet", `{"input":[1,2,3]}`, http.StatusBadRequest},
		{"malformed JSON", "/v1/predict?model=tinynet", `{"input":`, http.StatusBadRequest},
		{"non-finite input", "/v1/predict?model=tinynet",
			`{"input":[` + strings.Repeat("1,", elems-1) + `1e999]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.url, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/predict?model=tinynet")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: status %d, want 405", resp.StatusCode)
	}
}

func TestReadyzTransitions(t *testing.T) {
	s, ts := testServer(t, Config{Models: []string{"tinynet"}})

	status := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz before preload: %d, want 503", got)
	}
	if err := s.Preload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := status(); got != http.StatusOK {
		t.Fatalf("readyz after preload: %d, want 200", got)
	}
	s.BeginDrain()
	if got := status(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", got)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func TestCompileSingleflight(t *testing.T) {
	s, ts := testServer(t, Config{})
	elems := tinyElems(t)

	// A burst of cold requests for the same (model, mode) must compile
	// exactly once.
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict?model=tinynet", "application/json", jsonBody(t, elems, uint64(i+1)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := s.reg.compiles.Load(); got != 1 {
		t.Fatalf("cold burst compiled %d times, want 1", got)
	}
}

func TestModelsEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{Models: []string{"tinynet"}})
	if err := s.Preload(context.Background()); err != nil {
		t.Fatal(err)
	}
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
	if len(out.Models) != 1 || out.Models[0].Model != "tinynet" || out.Models[0].InputElems != tinyElems(t) {
		t.Fatalf("models: %+v", out.Models)
	}
}

func TestMetricszAndPoolReuse(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	defer metrics.Disable()
	defer metrics.Reset()

	_, ts := testServer(t, Config{Models: []string{"tinynet"}})
	elems := tinyElems(t)
	for i := 0; i < 6; i++ {
		resp, err := http.Post(ts.URL+"/v1/predict?model=tinynet", "application/json", jsonBody(t, elems, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Runtime == nil {
		t.Fatal("metricsz snapshot has no runtime section")
	}
	rt := map[string]int64{}
	for _, p := range snap.Runtime.Counters {
		rt[p.Name] += p.Value
	}
	if rt["serve.requests"] != 6 {
		t.Fatalf("serve.requests = %d, want 6", rt["serve.requests"])
	}
	if rt["serve.batches"] == 0 {
		t.Fatal("serve.batches not recorded")
	}
	// Sequential requests over the same shape must reuse pooled tensors:
	// after the first few allocations the pool serves hits.
	if rt["serve.tensor_pool.hits"] == 0 {
		t.Fatalf("tensor pool recorded no hits (misses=%d)", rt["serve.tensor_pool.misses"])
	}
	// Serve metrics are schedule-dependent and must stay out of the
	// deterministic section.
	for _, p := range snap.Counters {
		if strings.HasPrefix(p.Name, "serve.") {
			t.Fatalf("serve counter %q leaked into the deterministic section", p.Name)
		}
	}
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, "serve.") {
			t.Fatalf("serve histogram %q leaked into the deterministic section", h.Name)
		}
	}
}

// TestConcurrentLoadBatches asserts over HTTP that requests arriving
// while the dispatcher is busy leave as batches larger than one — the
// core batching property the CI smoke also checks. The first batch is
// held in forward by an injected delay (the only one: ServeLimit 1) and
// the concurrent burst is posted only once that batch has been
// dispatched, so the burst queues behind a busy dispatcher by
// construction rather than by winning a race with its wake-up.
func TestConcurrentLoadBatches(t *testing.T) {
	s, ts := testServer(t, Config{
		Models: []string{"tinynet"}, BatchMax: 8, QueueDepth: 256,
		Faults: faults.Config{Seed: 1, ServeDelay: 50 * time.Millisecond, ServeLimit: 1},
	})
	if err := s.Preload(context.Background()); err != nil {
		t.Fatal(err)
	}
	e, err := s.reg.get(context.Background(), modelKey{Model: "tinynet", Mode: ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	elems := tinyElems(t)

	const n = 32
	sizes := make([]int, 1+n)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/predict?model=tinynet", "application/json", jsonBody(t, elems, uint64(i+1)))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var pr predictResponse
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&pr) != nil {
			t.Errorf("request %d: status %d", i, resp.StatusCode)
			return
		}
		sizes[i] = pr.BatchSize
	}
	wg.Add(1)
	go post(0)
	for deadline := time.Now().Add(10 * time.Second); e.batcher.batchSeq.Load() == 0; { // batch 0 not yet dispatched
		if time.Now().After(deadline) {
			t.Fatal("first request never dispatched")
		}
		time.Sleep(100 * time.Microsecond)
	}
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go post(i)
	}
	wg.Wait()
	if sizes[0] != 1 {
		t.Fatalf("held request ran in a batch of %d, want 1", sizes[0])
	}
	maxBatch := 0
	for _, s := range sizes[1:] {
		maxBatch = max(maxBatch, s)
	}
	if maxBatch < 2 {
		t.Fatalf("no request ran in a batch > 1 (sizes %v)", sizes)
	}
}

// TestPredictQueueFull429 drives overflow through the HTTP layer:
// BatchMax 1 keeps the dispatcher busy one Forward per request while
// concurrent posts overfill the 1-slot queue, so some must be rejected
// with 429 — and the 429 must carry a Retry-After hint and leave the
// accepted requests unharmed.
func TestPredictQueueFull429(t *testing.T) {
	_, ts := testServer(t, Config{
		Models: []string{"tinynet"}, BatchMax: 1, QueueDepth: 1,
	})
	elems := tinyElems(t)
	body := jsonBody(t, elems, 3).Bytes()

	var (
		mu          sync.Mutex
		ok, full    int
		retryAfters []string
	)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/predict?model=tinynet", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		mu.Lock()
		defer mu.Unlock()
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			full++
			retryAfters = append(retryAfters, resp.Header.Get("Retry-After"))
		default:
			t.Errorf("unexpected status %d", resp.StatusCode)
		}
	}

	// Rounds of concurrent posts until a rejection is observed; each
	// round outnumbers queue capacity (1 queued + 1 in the dispatcher)
	// several times over, so overflow is all but immediate.
	for round := 0; round < 100; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); post() }()
		}
		wg.Wait()
		mu.Lock()
		done := full > 0
		mu.Unlock()
		if done {
			break
		}
	}

	if full == 0 {
		t.Fatalf("no 429 after sustained overflow (%d accepted)", ok)
	}
	if ok == 0 {
		t.Fatal("overflow rejected everything; some requests must still succeed")
	}
	for _, ra := range retryAfters {
		if ra == "" {
			t.Fatal("429 without Retry-After header")
		}
		var secs int
		if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
			t.Fatalf("Retry-After %q: want a positive whole-second value", ra)
		}
	}
}
