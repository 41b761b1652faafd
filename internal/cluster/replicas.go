// Package cluster is the horizontal-scaling tier above internal/serve:
// an HTTP gateway that fans /v1/predict traffic out across a fixed
// fleet of snapea-serve replicas. One replica serves one process's
// worth of inference; the cluster tier is what turns N of them into a
// single endpoint that survives replica death and drains without
// dropping a single accepted request.
//
// Architecture:
//
//   - a replica set, validated once and immutable after, with active
//     health probing: each replica's /readyz is polled on its own loop,
//     consecutive failures eject it and one success restores it —
//     replicas.go;
//   - a power-of-two-choices router on a per-replica in-flight gauge —
//     router.go;
//   - the gateway handler tying them together with sequential failover
//     on transport errors and 502/503, and gateway-side graceful drain
//     — gateway.go.
//
// All gateway.* metrics are runtime metrics: routing and probing depend
// on arrival timing, so none of them may enter the deterministic
// snapshot section.
package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snapea/internal/metrics"
)

// Replica is one snapea-serve backend as the gateway sees it. A request
// holds its *Replica across the proxy round-trip, so the in-flight gauge
// stays exact while the replica drains.
type Replica struct {
	// URL is the backend base URL, e.g. "http://10.0.0.7:8080".
	URL string

	inflight atomic.Int64
	healthy  atomic.Bool // active-probe verdict; starts true (optimistic)

	// probeFails counts consecutive failed /readyz probes; owned by the
	// replica's probe loop goroutine, no atomics needed.
	probeFails int
}

// Set is the fleet: membership is fixed at construction, and each
// member's probe loop updates its health.
type Set struct {
	cfg      Config
	replicas []*Replica // config order; never modified after newSet

	probeCancel context.CancelFunc
	probes      sync.WaitGroup
}

// newSet validates the replica list (non-empty, every URL
// scheme://host[:port], no duplicates) and starts one probe loop per
// replica.
func newSet(cfg Config) (*Set, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: replica list is empty")
	}
	s := &Set{cfg: cfg}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, raw := range cfg.Replicas {
		raw = strings.TrimRight(strings.TrimSpace(raw), "/")
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: replica URL %q: want scheme://host[:port]", raw)
		}
		if seen[raw] {
			return nil, fmt.Errorf("cluster: duplicate replica %q", raw)
		}
		seen[raw] = true
		rep := &Replica{URL: raw}
		rep.healthy.Store(true)
		s.replicas = append(s.replicas, rep)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.probeCancel = cancel
	for _, rep := range s.replicas {
		s.probes.Add(1)
		go s.probeLoop(ctx, rep)
	}
	return s, nil
}

// Healthy counts the members whose probes currently pass — the /readyz
// signal.
func (s *Set) Healthy() int {
	n := 0
	for _, rep := range s.replicas {
		if rep.healthy.Load() {
			n++
		}
	}
	return n
}

// Close stops the probe loops.
func (s *Set) Close() {
	s.probeCancel()
	s.probes.Wait()
}

// probeLoop polls one member's /readyz on the probe interval. A replica
// is ejected (healthy=false) after ProbeFailures consecutive failed
// probes and restored on the first success — detection for replicas that
// drain or die before a request fails on them, and the recovery path for
// replicas whose drain turned out to be a restart. Each member has its
// own loop, so a replica whose /readyz hangs for ProbeTimeout delays only
// its own verdict.
//
//snapea:runtime
func (s *Set) probeLoop(ctx context.Context, rep *Replica) {
	defer s.probes.Done()
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		s.probe(ctx, rep)
		if metrics.Enabled() {
			metrics.RG("gateway.replicas", nil).Set(int64(len(s.replicas)))
			metrics.RG("gateway.replicas_healthy", nil).Set(int64(s.Healthy()))
		}
	}
}

// probe runs one /readyz check and applies the consecutive-failure
// ejection rule.
//
//snapea:runtime
func (s *Set) probe(ctx context.Context, rep *Replica) {
	pctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.URL+"/readyz", nil)
	if err == nil {
		resp, rerr := s.cfg.Client.Do(req)
		if rerr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	if metrics.Enabled() {
		metrics.RC("gateway.probes", metrics.Labels{"ok": fmt.Sprint(ok)}).Add(1)
	}
	if ok {
		rep.probeFails = 0
		if !rep.healthy.Swap(true) && metrics.Enabled() {
			metrics.RC("gateway.recoveries", nil).Add(1)
		}
		return
	}
	rep.probeFails++
	if rep.probeFails >= s.cfg.ProbeFailures {
		if rep.healthy.Swap(false) && metrics.Enabled() {
			metrics.RC("gateway.ejections", metrics.Labels{"cause": "probe"}).Add(1)
		}
	}
}
