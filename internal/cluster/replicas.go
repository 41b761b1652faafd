// Package cluster is the horizontal-scaling tier above internal/serve:
// an HTTP gateway that fans /v1/predict traffic out across a fleet of
// snapea-serve replicas. One replica serves one process's worth of
// inference; the cluster tier is what turns N of them into a
// single endpoint that survives replica death, flattens the tail
// latency predictive-mode serving produces by design (early-exit vs.
// full compute, mispredict audits), and drains without dropping a
// single accepted request.
//
// Architecture:
//
//   - a replica set with active health probing (a /readyz poll loop)
//     and passive ejection (a per-replica circuit breaker fed by
//     proxied-request outcomes, reusing internal/resilience semantics:
//     consecutive errors open the breaker, half-open admits exactly one
//     trial request) — replicas.go;
//   - a router with two policies: power-of-two-choices on an
//     in-flight-requests gauge (default), and consistent hashing on the
//     model name so each replica's compile cache stays hot for a
//     stable subset of models — router.go;
//   - tail-latency hedging: after a quantile-tracked delay the request
//     is re-issued to a second replica and the first answer wins, the
//     loser's context is cancelled, and a hedge budget caps the
//     amplification — hedge.go;
//   - the gateway handler tying them together with transport-error
//     failover, gateway-side graceful drain, the /v1/replicas admin
//     endpoint, and replica-list reload — gateway.go.
//
// All gateway.* metrics are runtime metrics: routing and hedging depend
// on arrival timing, so none of them may enter the deterministic
// snapshot section.
package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snapea/internal/metrics"
	"snapea/internal/resilience"
)

// Replica is one snapea-serve backend as the gateway sees it. The
// struct outlives its membership in the set: a request holds its
// *Replica across the proxy round-trip, so a replica removed by a
// config reload keeps accounting correctly until its last in-flight
// request finishes — that is the gateway half of zero-downtime drain.
type Replica struct {
	// URL is the backend base URL, e.g. "http://10.0.0.7:8080".
	URL string

	base     *url.URL
	inflight atomic.Int64
	healthy  atomic.Bool // active-probe verdict; starts true (optimistic)
	breaker  *resilience.Breaker

	// probeFails counts consecutive failed /readyz probes; owned by the
	// probe loop goroutine, no atomics needed.
	probeFails int

	// requests/errors are lifetime proxied-request counts for the
	// /v1/replicas admin view.
	requests atomic.Int64
	errors   atomic.Int64
}

// Routable reports whether the router may send new traffic here:
// actively healthy and with a breaker willing to admit. admit has the
// half-open side effect of claiming the single probe slot, so a true
// return for a half-open replica means this caller owns the trial
// request.
func (rep *Replica) Routable() bool {
	return rep.healthy.Load() && rep.admit() == nil
}

// admit asks the replica's breaker for admission; passive ejection
// disabled means everyone is admitted.
func (rep *Replica) admit() error {
	if rep.breaker == nil {
		return nil
	}
	_, err := rep.breaker.Allow()
	return err
}

// record feeds one proxied-request outcome to the breaker, if any.
func (rep *Replica) record(err error) {
	if rep.breaker != nil {
		rep.breaker.Record(err)
	}
}

// breakerState renders the breaker position for the admin view.
func (rep *Replica) breakerState() string {
	if rep.breaker == nil {
		return "disabled"
	}
	return rep.breaker.State().String()
}

// Set is the live replica fleet: the probe loop updates health, Reload
// swaps membership, and the router picks from the current snapshot.
type Set struct {
	cfg Config

	mu       sync.RWMutex
	replicas []*Replica          // current membership, config order
	byURL    map[string]*Replica // membership index
	gen      uint64              // bumped on every membership change

	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

// newSet builds the fleet and starts the probe loop.
func newSet(cfg Config) (*Set, error) {
	s := &Set{cfg: cfg, byURL: make(map[string]*Replica)}
	if err := s.SetReplicas(cfg.Replicas); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.probeCancel = cancel
	s.probeDone = make(chan struct{})
	go s.probeLoop(ctx)
	return s, nil
}

// newReplica validates one backend URL and builds its breaker.
func (s *Set) newReplica(raw string) (*Replica, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: replica URL %q: want scheme://host[:port]", raw)
	}
	rep := &Replica{URL: raw, base: u}
	rep.healthy.Store(true)
	if s.cfg.EjectFailures >= 0 {
		url := raw
		rep.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Failures: s.cfg.EjectFailures,
			OpenFor:  s.cfg.EjectOpenFor,
			Probes:   s.cfg.EjectProbes,
			OnTransition: func(from, to resilience.State) {
				if !metrics.Enabled() {
					return
				}
				lbl := metrics.Labels{"replica": url}
				metrics.RG("gateway.replica_breaker_state", lbl).Set(int64(to))
				if to == resilience.Open {
					metrics.RC("gateway.ejections", metrics.Labels{"cause": "passive"}).Add(1)
				}
			},
		})
	}
	return rep, nil
}

// SetReplicas replaces the fleet membership. Replicas present in both
// the old and new lists are kept (health, breaker, and in-flight state
// intact); new URLs join optimistically healthy; removed replicas stop
// receiving new picks immediately and drain naturally — requests
// already routed to them hold the *Replica and finish normally.
func (s *Set) SetReplicas(urls []string) error {
	if len(urls) == 0 {
		return fmt.Errorf("cluster: replica list is empty")
	}
	fresh := make([]*Replica, 0, len(urls))
	freshByURL := make(map[string]*Replica, len(urls))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, raw := range urls {
		rep, err := s.newReplica(raw)
		if err != nil {
			return err
		}
		if _, dup := freshByURL[rep.URL]; dup {
			return fmt.Errorf("cluster: duplicate replica %q", rep.URL)
		}
		if old, ok := s.byURL[rep.URL]; ok {
			rep = old // keep live state for retained members
		}
		fresh = append(fresh, rep)
		freshByURL[rep.URL] = rep
	}
	s.replicas = fresh
	s.byURL = freshByURL
	s.gen++
	if metrics.Enabled() {
		metrics.RG("gateway.replicas", nil).Set(int64(len(fresh)))
	}
	return nil
}

// ReloadFile re-reads the replica-list file (one URL per line, blank
// lines and #-comments ignored) and applies it via SetReplicas. The
// file is expected to be written atomically (internal/atomicfile or an
// equivalent rename-into-place), so a plain read never observes a torn
// list.
func (s *Set) ReloadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("cluster: reload %s: %w", path, err)
	}
	var urls []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		urls = append(urls, line)
	}
	if err := s.SetReplicas(urls); err != nil {
		return err
	}
	if metrics.Enabled() {
		metrics.RC("gateway.reloads", nil).Add(1)
	}
	return nil
}

// Snapshot returns the current membership, config order.
func (s *Set) Snapshot() []*Replica {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.replicas
}

// Healthy counts currently routable-by-health members (breaker state
// not consulted — this is the /readyz signal, not an admission check).
func (s *Set) Healthy() int {
	n := 0
	for _, rep := range s.Snapshot() {
		if rep.healthy.Load() {
			n++
		}
	}
	return n
}

// Close stops the probe loop.
func (s *Set) Close() {
	s.probeCancel()
	<-s.probeDone
}

// probeLoop polls every member's /readyz on the probe interval. A
// replica is ejected (healthy=false) after ProbeFailures consecutive
// failed probes and restored on the first success — active detection
// for replicas that die without failing a request first, and the
// recovery path for replicas whose drain turned out to be a restart.
//
//snapea:runtime
func (s *Set) probeLoop(ctx context.Context) {
	defer close(s.probeDone)
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		for _, rep := range s.Snapshot() {
			s.probe(ctx, rep)
		}
		if metrics.Enabled() {
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

// replicaInfo is one entry of the /v1/replicas admin endpoint.
type replicaInfo struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Breaker  string `json:"breaker"`
	InFlight int64  `json:"in_flight"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
}

// infos renders the admin view, sorted by URL for stable output.
func (s *Set) infos() []replicaInfo {
	reps := s.Snapshot()
	out := make([]replicaInfo, 0, len(reps))
	for _, rep := range reps {
		out = append(out, replicaInfo{
			URL:      rep.URL,
			Healthy:  rep.healthy.Load(),
			Breaker:  rep.breakerState(),
			InFlight: rep.inflight.Load(),
			Requests: rep.requests.Load(),
			Errors:   rep.errors.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
