package cluster

import (
	"net/http"
	"sync/atomic"
	"testing"
)

// quarantinedPredict mimics a snapea-serve replica whose integrity
// layer quarantined the model: fast 503 with the marker header.
func quarantinedPredict() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("X-Snapea-Quarantined", "1")
		http.Error(w, "model quarantined", http.StatusServiceUnavailable)
	}
}

// TestGatewayFailsOverFromQuarantinedReplica pins the cluster tier of
// the integrity story. A replica with one model quarantined stays ready
// (its /readyz still answers 200, since it serves its other models), so
// it stays in rotation; each request that lands on it fails over to a
// healthy sibling, and the client never sees the quarantine.
func TestGatewayFailsOverFromQuarantinedReplica(t *testing.T) {
	healthy := fakeReplica(t, okPredict("healthy"))
	var sickHits atomic.Int64
	sick := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		sickHits.Add(1)
		quarantinedPredict()(w, r)
	})
	g := newTestGateway(t, Config{Replicas: []string{healthy.URL, sick.URL}})
	for i := 0; i < 20; i++ {
		rec := postPredict(t, g, "model=tinynet")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, want failover to keep everything 200", i, rec.Code)
		}
		if got := rec.Header().Get("X-Snapea-Replica"); got != healthy.URL {
			t.Fatalf("request %d answered by %q, want %q", i, got, healthy.URL)
		}
		if rec.Header().Get("X-Snapea-Quarantined") != "" {
			t.Fatalf("request %d: healthy answer carries the quarantine header", i)
		}
	}
	if sickHits.Load() == 0 {
		t.Fatal("no request was routed to the quarantined replica; failover went untested")
	}
}

// TestGatewayPassesQuarantineHeaderThrough pins the single-replica
// behavior: with nowhere to fail over, the quarantine 503 and its
// marker header reach the client so it can back off intelligently.
func TestGatewayPassesQuarantineHeaderThrough(t *testing.T) {
	sick := fakeReplica(t, quarantinedPredict())
	g := newTestGateway(t, Config{Replicas: []string{sick.URL}})
	rec := postPredict(t, g, "model=tinynet")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the replica's 503 passed through", rec.Code)
	}
	if rec.Header().Get("X-Snapea-Quarantined") != "1" {
		t.Fatal("X-Snapea-Quarantined header not passed through")
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("Retry-After header not passed through")
	}
}
