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

// longestFloat32JSON returns a float32 whose encoding/json text is the
// longest, and that length. It marshals both signs of every binade's
// first and last 64 values and of every 8191st value between them, so
// each binade's largest and smallest magnitudes and its many 8- and
// 9-digit values are all among the candidates.
func longestFloat32JSON(t *testing.T) (float32, int) {
	t.Helper()
	var best float32
	longest := 0
	try := func(bits uint32) {
		f := math.Float32frombits(bits)
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > longest {
			best, longest = f, len(b)
		}
	}
	const mant = 1 << 23
	var ms []uint32
	for m := uint32(0); m < 64; m++ {
		ms = append(ms, m, mant-1-m)
	}
	for m := uint32(64); m < mant-64; m += 8191 {
		ms = append(ms, m)
	}
	for exp := uint32(0); exp < 255; exp++ { // 255 is Inf and NaN
		for _, m := range ms {
			try(exp<<23 | m)
			try(1<<31 | exp<<23 | m)
		}
	}
	return best, longest
}

// TestBodiesOfEveryModel: for every model, a JSON body and a raw body of
// the same input both answer 200 with bit-identical logits, and a JSON
// body whose every element has the longest text encoding/json writes
// for a float32 fits the JSON body limit.
func TestBodiesOfEveryModel(t *testing.T) {
	longest, n := longestFloat32JSON(t)
	if n != maxFloat32JSON {
		t.Fatalf("longest encoding/json float32 text is %d bytes (%v), maxFloat32JSON is %d", n, longest, maxFloat32JSON)
	}
	// Compiles come before, and no deadline during, the requests: under
	// the race detector a vggnet forward takes seconds.
	s, ts := testServer(t, Config{Models: models.Names(), RequestTimeout: -1})
	preload(t, s)
	post := func(t *testing.T, model, contentType string, body []byte) predictResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict?model="+model, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s %s body of %d bytes: status %d: %s", model, contentType, len(body), resp.StatusCode, msg)
		}
		var pr predictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	for _, model := range models.Names() {
		t.Run(model, func(t *testing.T) {
			elems := modelElems(t, model)
			jsonBytes := jsonBody(t, elems, 5).Bytes()
			var in struct{ Input []float32 }
			if err := json.Unmarshal(jsonBytes, &in); err != nil {
				t.Fatal(err)
			}
			raw := make([]byte, 4*elems)
			for i, v := range in.Input {
				binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
			}
			fromJSON := post(t, model, "application/json", jsonBytes)
			fromRaw := post(t, model, "application/octet-stream", raw)
			if !sameBits(fromJSON.Logits, fromRaw.Logits) {
				t.Fatalf("JSON logits %v, raw logits %v", fromJSON.Logits, fromRaw.Logits)
			}
			for i := range in.Input {
				in.Input[i] = longest
			}
			body, err := json.Marshal(map[string][]float32{"input": in.Input})
			if err != nil {
				t.Fatal(err)
			}
			post(t, model, "application/json", body)
		})
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

func TestMetricszRuntimeSection(t *testing.T) {
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
