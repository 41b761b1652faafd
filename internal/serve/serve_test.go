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
	"runtime"
	"strings"
	"sync"
	"testing"

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

// preload compiles the configured models, so that a short request
// deadline times the request rather than a first compile.
func preload(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Preload(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// postStatus posts a tinynet request and returns its status; unlike
// postPredict it is safe on a goroutine other than the test's own (a
// transport error is reported with t.Error and reads as status 0).
func postStatus(t *testing.T, url string, body []byte) int {
	resp, err := http.Post(url+"/v1/predict?model=tinynet", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
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
	if pr.BatchSize != 1 || pr.TotalUS <= 0 {
		t.Fatalf("timing/batch fields: %+v", pr)
	}
	// The degrade flag mirrors the body as 0/1 (the gateway reads it
	// without parsing JSON).
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

// TestPredictQueueFull429 drives overflow through the HTTP layer: with
// every run slot held and the one waiting place taken, the next request
// is rejected with 429 and a Retry-After hint, and the admitted requests
// are unharmed.
func TestPredictQueueFull429(t *testing.T) {
	s, ts := testServer(t, Config{QueueDepth: 1})
	e, h := holdEntry(t, s)
	body := jsonBody(t, tinyElems(t), 3).Bytes()

	slots := runtime.GOMAXPROCS(0)
	codes := make([]int, slots+1)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		codes[i] = postStatus(t, ts.URL, body)
	}
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go post(i)
	}
	h.awaitEntered(t, slots)
	wg.Add(1)
	go post(slots)
	awaitWaiting(t, e, 1)

	code, _, ra := postPredict(t, ts.URL, "tinynet", "", body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("request past a full queue: status %d, want 429", code)
	}
	if ra != "1" {
		t.Fatalf("429 Retry-After %q, want %q", ra, "1")
	}
	h.releaseAll()
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("admitted request %d: status %d, want 200", i, c)
		}
	}
}
