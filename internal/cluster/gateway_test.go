package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	g := newTestGateway(t, Config{Replicas: []string{rep.URL}})
	rec := postPredict(t, g, "model=tinynet")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Snapea-Replica"); got != rep.URL {
		t.Fatalf("X-Snapea-Replica = %q, want %q", got, rep.URL)
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

// waitHealthy polls the set until exactly want replicas pass their
// probes, and fails the test if that takes longer than within.
func waitHealthy(t *testing.T, g *Gateway, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for g.set.Healthy() != want {
		if time.Now().After(deadline) {
			t.Fatalf("healthy count never reached %d within %v (now %d)", want, within, g.set.Healthy())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayFailoverOnDeadReplica(t *testing.T) {
	live := fakeReplica(t, okPredict("live"))
	dead := fakeReplica(t, okPredict("dead"))
	deadURL := dead.URL
	dead.Close() // connection refused from the start
	g := newTestGateway(t, Config{
		Replicas:      []string{live.URL, deadURL},
		ProbeInterval: 10 * time.Millisecond,
	})
	check := func(phase string) {
		t.Helper()
		for i := 0; i < 20; i++ {
			rec := postPredict(t, g, "model=tinynet")
			if rec.Code != http.StatusOK {
				t.Fatalf("%s request %d: status %d, want failover to keep everything 200", phase, i, rec.Code)
			}
			if got := rec.Header().Get("X-Snapea-Replica"); got != live.URL {
				t.Fatalf("%s request %d answered by %q, want %q", phase, i, got, live.URL)
			}
		}
	}
	// Before the probes eject it, requests that pick the dead replica
	// fail over to the live one; after, P2C no longer picks it at all.
	check("pre-ejection")
	waitHealthy(t, g, 1, 3*time.Second)
	check("post-ejection")
}

// abortPredict drops the connection without an answer, as a replica that
// dies mid-request does: the gateway sees a transport error.
func abortPredict(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	panic(http.ErrAbortHandler)
}

func TestGatewayAllReplicasDown(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			http.Error(w, "gone", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/v1/predict", abortPredict)
	dying := httptest.NewServer(mux)
	t.Cleanup(dying.Close)
	g := newTestGateway(t, Config{
		Replicas:      []string{dying.URL},
		ProbeInterval: 10 * time.Millisecond,
	})
	if rec := postPredict(t, g, "model=tinynet"); rec.Code != http.StatusBadGateway {
		t.Fatalf("first request status = %d, want 502 (transport error, nowhere to fail over)", rec.Code)
	}
	// The probes eject it: the fleet is exhausted before any dial.
	ready.Store(false)
	waitHealthy(t, g, 0, 3*time.Second)
	rec := postPredict(t, g, "model=tinynet")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-ejection status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "no healthy replicas") {
		t.Fatalf("readyz with no healthy replica = %d %q, want 503 no healthy replicas", rec.Code, rec.Body.String())
	}
}

func TestGatewayDrainGate(t *testing.T) {
	rep := fakeReplica(t, okPredict("a"))
	g := newTestGateway(t, Config{Replicas: []string{rep.URL}})

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
	})
	waitHealthy(t, g, 2, 3*time.Second)
	ready.Store(false)
	waitHealthy(t, g, 1, 3*time.Second)
	// All traffic lands on the surviving replica, no errors.
	for i := 0; i < 10; i++ {
		rec := postPredict(t, g, "model=tinynet")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Snapea-Replica") != stable.URL {
			t.Fatalf("request %d: status %d replica %q", i, rec.Code, rec.Header().Get("X-Snapea-Replica"))
		}
	}
	ready.Store(true)
	waitHealthy(t, g, 2, 3*time.Second)
}

// TestGatewaySlowProbeStallsNoOtherReplica: replica A's /readyz hangs
// until the probe times out, and replica B's fails. B must be ejected
// on the probe interval, not after A's probe timeout.
func TestGatewaySlowProbeStallsNoOtherReplica(t *testing.T) {
	hung := http.NewServeMux()
	hung.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	hung.HandleFunc("/v1/predict", okPredict("hung"))
	a := httptest.NewServer(hung)
	t.Cleanup(a.Close)
	failing := http.NewServeMux()
	failing.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	})
	failing.HandleFunc("/v1/predict", okPredict("failing"))
	b := httptest.NewServer(failing)
	t.Cleanup(b.Close)

	g := newTestGateway(t, Config{
		Replicas:      []string{a.URL, b.URL},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  time.Second,
	})
	// A still counts as healthy until its own probes time out (1 s each),
	// so a healthy count of 1 means B was ejected.
	waitHealthy(t, g, 1, 500*time.Millisecond)
	if rep := g.set.replicas[1]; rep.healthy.Load() {
		t.Fatalf("replica %s still healthy; the wrong replica was ejected", rep.URL)
	}
}

// TestNewRejectsBadReplicas: the replica list is validated once, at
// construction.
func TestNewRejectsBadReplicas(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas []string
		want     string
	}{
		{"empty", nil, "empty"},
		{"duplicate", []string{"http://a:1", "http://a:1/"}, "duplicate"},
		{"not a url", []string{"not a url"}, "want scheme://host"},
		{"no scheme", []string{"/no-scheme"}, "want scheme://host"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(Config{Replicas: tc.replicas})
			if err == nil {
				g.Close()
				t.Fatalf("New(%q) accepted bad input", tc.replicas)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%q) error %q, want it to mention %q", tc.replicas, err, tc.want)
			}
		})
	}
}

func TestGatewayModelsProxy(t *testing.T) {
	rep := fakeReplica(t, okPredict("a"))
	g := newTestGateway(t, Config{Replicas: []string{rep.URL}})
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
	g := newTestGateway(t, Config{Replicas: []string{rep.URL}})
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
