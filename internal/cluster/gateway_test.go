package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeReplica is a minimal snapea-serve stand-in: /readyz always ready,
// /v1/predict delegated to the given handler, /v1/models static.
func fakeReplica(t *testing.T, predict http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/v1/predict", predict)
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"models":["tinynet"]}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func okPredict(tag string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Snapea-Degraded", "0")
		fmt.Fprintf(w, `{"replica":%q}`, tag)
	}
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

func postPredict(t *testing.T, g *Gateway, query string) *httptest.ResponseRecorder {
	t.Helper()
	target := "/v1/predict"
	if query != "" {
		target += "?" + query
	}
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(`{"model":"tinynet","inputs":[[0]]}`))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	return rec
}

func TestGatewayProxiesPredict(t *testing.T) {
	rep := fakeReplica(t, okPredict("a"))
	g := newTestGateway(t, Config{Replicas: []string{rep.URL}, HedgeQuantile: -1})
	rec := postPredict(t, g, "model=tinynet")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Snapea-Replica"); got != rep.URL {
		t.Fatalf("X-Snapea-Replica = %q, want %q", got, rep.URL)
	}
	if got := rec.Header().Get("X-Snapea-Hedged"); got != "0" {
		t.Fatalf("X-Snapea-Hedged = %q, want 0", got)
	}
	// The serve observability headers pass through untouched.
	if got := rec.Header().Get("X-Snapea-Degraded"); got != "0" {
		t.Fatalf("X-Snapea-Degraded = %q, want 0", got)
	}
	var body struct{ Replica string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Replica != "a" {
		t.Fatalf("body = %s (err %v), want replica a's answer", rec.Body.String(), err)
	}
}

func TestGatewayFailoverOnDeadReplica(t *testing.T) {
	live := fakeReplica(t, okPredict("live"))
	dead := fakeReplica(t, okPredict("dead"))
	deadURL := dead.URL
	dead.Close() // connection refused from the start
	g := newTestGateway(t, Config{
		Replicas:      []string{live.URL, deadURL},
		ProbeInterval: time.Hour, // passive path only: breaker must eject
		HedgeQuantile: -1,
		EjectFailures: 2,
		EjectOpenFor:  time.Hour,
	})
	for i := 0; i < 20; i++ {
		rec := postPredict(t, g, "model=tinynet")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, want failover to keep everything 200", i, rec.Code)
		}
		if got := rec.Header().Get("X-Snapea-Replica"); got != live.URL {
			t.Fatalf("request %d answered by %q, want %q", i, got, live.URL)
		}
	}
	// The dead replica's breaker must have opened: passive ejection.
	for _, info := range g.Replicas().infos() {
		if info.URL == deadURL && info.Breaker != "open" {
			t.Fatalf("dead replica breaker = %s, want open", info.Breaker)
		}
	}
}

func TestGatewayAllReplicasDown(t *testing.T) {
	dead := fakeReplica(t, okPredict("dead"))
	deadURL := dead.URL
	dead.Close()
	g := newTestGateway(t, Config{
		Replicas:      []string{deadURL},
		ProbeInterval: time.Hour,
		HedgeQuantile: -1,
		EjectFailures: 1,
		EjectOpenFor:  time.Hour,
	})
	if rec := postPredict(t, g, "model=tinynet"); rec.Code != http.StatusBadGateway {
		t.Fatalf("first request status = %d, want 502 (transport error)", rec.Code)
	}
	// Breaker is now open: the fleet is exhausted before any dial.
	rec := postPredict(t, g, "model=tinynet")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-ejection status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestGatewayHedgeWinsAndCancelsLoser(t *testing.T) {
	slowCancelled := make(chan struct{}, 1)
	slow := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first (as the real serve handler does): an
		// unread body suppresses the server's client-disconnect
		// detection, which this test depends on.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			slowCancelled <- struct{}{}
			return
		case <-time.After(2 * time.Second):
		}
		okPredict("slow")(w, r)
	})
	fast := fakeReplica(t, okPredict("fast"))
	// Hash policy pins the model to one home replica; find a model whose
	// home is the slow one so the hedge must rescue it.
	g := newTestGateway(t, Config{
		Replicas:    []string{slow.URL, fast.URL},
		Policy:      PolicyHash,
		HedgeBudget: 1.0,
		HedgeMin:    10 * time.Millisecond,
		HedgeMax:    10 * time.Millisecond,
	})
	model := ""
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("no model hashes to the slow replica")
		}
		m := fmt.Sprintf("m-%d", i)
		if g.rt.pick(g.set, m, nil).URL == slow.URL {
			model = m
			break
		}
	}
	start := time.Now()
	rec := postPredict(t, g, "model="+model)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Snapea-Replica"); got != fast.URL {
		t.Fatalf("answered by %q, want hedge winner %q", got, fast.URL)
	}
	if got := rec.Header().Get("X-Snapea-Hedged"); got != "1" {
		t.Fatalf("X-Snapea-Hedged = %q, want 1", got)
	}
	if e2e := time.Since(start); e2e > time.Second {
		t.Fatalf("e2e %v: hedge did not short-circuit the slow primary", e2e)
	}
	select {
	case <-slowCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("losing attempt was never cancelled")
	}
}

func TestGatewayHedgeBudgetEnforced(t *testing.T) {
	var hits atomic.Int64
	predict := func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		time.Sleep(5 * time.Millisecond) // slower than the hedge delay
		okPredict("x")(w, r)
	}
	a, b := fakeReplica(t, predict), fakeReplica(t, predict)
	g := newTestGateway(t, Config{
		Replicas:    []string{a.URL, b.URL},
		HedgeBudget: 0.1,
		HedgeMin:    time.Millisecond,
		HedgeMax:    time.Millisecond,
	})
	const n = 100
	for i := 0; i < n; i++ {
		if rec := postPredict(t, g, "model=tinynet"); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	hedges := hits.Load() - n
	if hedges <= 0 {
		t.Fatal("hedge never fired despite every request exceeding the delay")
	}
	if max := int64(0.1 * n); hedges > max {
		t.Fatalf("%d hedges fired over %d requests, budget 0.1 allows at most %d", hedges, n, max)
	}
	if fired := g.budget.fired.Load(); fired != hedges {
		t.Fatalf("budget accounting says %d fired, backends saw %d", fired, hedges)
	}
}

func TestGatewayDrainGate(t *testing.T) {
	rep := fakeReplica(t, okPredict("a"))
	g := newTestGateway(t, Config{Replicas: []string{rep.URL}, HedgeQuantile: -1})

	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz before drain = %d", rec.Code)
	}

	g.BeginDrain()
	if rec := postPredict(t, g, "model=tinynet"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("predict during drain = %d, want 503", rec.Code)
	} else if rec.Header().Get("Retry-After") == "" {
		t.Fatal("drain 503 without Retry-After")
	}
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("readyz during drain = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
}

func TestGatewayProbeEjectsAndRecovers(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/v1/predict", okPredict("flappy"))
	flappy := httptest.NewServer(mux)
	t.Cleanup(flappy.Close)
	stable := fakeReplica(t, okPredict("stable"))

	g := newTestGateway(t, Config{
		Replicas:      []string{flappy.URL, stable.URL},
		ProbeInterval: 10 * time.Millisecond,
		ProbeFailures: 2,
		HedgeQuantile: -1,
	})
	waitHealthy := func(want int) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for g.set.Healthy() != want {
			if time.Now().After(deadline) {
				t.Fatalf("healthy count never reached %d (now %d)", want, g.set.Healthy())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitHealthy(2)
	ready.Store(false)
	waitHealthy(1)
	// All traffic lands on the surviving replica, no errors.
	for i := 0; i < 10; i++ {
		rec := postPredict(t, g, "model=tinynet")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Snapea-Replica") != stable.URL {
			t.Fatalf("request %d: status %d replica %q", i, rec.Code, rec.Header().Get("X-Snapea-Replica"))
		}
	}
	ready.Store(true)
	waitHealthy(2)
}

func TestGatewayReloadFile(t *testing.T) {
	a := fakeReplica(t, okPredict("a"))
	b := fakeReplica(t, okPredict("b"))
	g := newTestGateway(t, Config{Replicas: []string{a.URL}, HedgeQuantile: -1})

	path := filepath.Join(t.TempDir(), "replicas.txt")
	content := fmt.Sprintf("# fleet\n%s\n\n%s\n", a.URL, b.URL)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := g.Replicas().ReloadFile(path); err != nil {
		t.Fatalf("ReloadFile: %v", err)
	}
	if got := len(g.set.Snapshot()); got != 2 {
		t.Fatalf("membership after reload = %d, want 2", got)
	}

	// A reload to an empty list must fail and leave membership intact.
	if err := os.WriteFile(path, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := g.Replicas().ReloadFile(path); err == nil {
		t.Fatal("ReloadFile accepted an empty list")
	}
	if got := len(g.set.Snapshot()); got != 2 {
		t.Fatalf("failed reload mutated membership: %d replicas", got)
	}
}

func TestGatewayReplicasEndpoint(t *testing.T) {
	a := fakeReplica(t, okPredict("a"))
	b := fakeReplica(t, okPredict("b"))
	g := newTestGateway(t, Config{Replicas: []string{a.URL, b.URL}, HedgeQuantile: -1})
	postPredict(t, g, "model=tinynet")

	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/replicas", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp struct {
		Policy   string        `json:"policy"`
		Draining bool          `json:"draining"`
		Replicas []replicaInfo `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.Policy != PolicyP2C || resp.Draining || len(resp.Replicas) != 2 {
		t.Fatalf("replicas view = %+v", resp)
	}
	total := int64(0)
	for _, info := range resp.Replicas {
		if !info.Healthy || info.Breaker != "closed" {
			t.Fatalf("replica %s: healthy=%v breaker=%s", info.URL, info.Healthy, info.Breaker)
		}
		total += info.Requests
	}
	if total != 1 {
		t.Fatalf("lifetime request count across fleet = %d, want 1", total)
	}
}

func TestGatewayModelsProxy(t *testing.T) {
	rep := fakeReplica(t, okPredict("a"))
	g := newTestGateway(t, Config{Replicas: []string{rep.URL}, HedgeQuantile: -1})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "tinynet") {
		t.Fatalf("models proxy = %d %q", rec.Code, rec.Body.String())
	}
}

func TestGatewayPassesThroughBackpressure(t *testing.T) {
	rep := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"queue full"}`)
	})
	g := newTestGateway(t, Config{Replicas: []string{rep.URL}, HedgeQuantile: -1})
	rec := postPredict(t, g, "model=tinynet")
	// 429 is not retryable: admission control must not be laundered into
	// load on a sibling.
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 passed through", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatal("Retry-After not passed through")
	}
}

func TestGatewayBadPolicy(t *testing.T) {
	if _, err := New(Config{Replicas: []string{"http://x:1"}, Policy: "round-robin"}); err == nil {
		t.Fatal("New accepted unknown policy")
	}
}
