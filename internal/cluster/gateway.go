package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"snapea/internal/metrics"
)

// Errors the gateway maps to HTTP statuses.
var (
	// ErrNoReplicas means no routable replica remained after health
	// filtering, breaker admission, and per-request exclusions (503).
	ErrNoReplicas = errors.New("cluster: no routable replica")
	// ErrDraining is the gateway-side drain gate (503 + Retry-After).
	ErrDraining = errors.New("cluster: gateway draining")
)

// Config parameterizes a Gateway. Zero values mean defaults; explicit
// negatives disable where noted.
type Config struct {
	// Replicas is the initial backend list (base URLs).
	Replicas []string
	// Policy selects the router: PolicyP2C (default) or PolicyHash.
	Policy string

	// ProbeInterval is the /readyz poll period (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 1s).
	ProbeTimeout time.Duration
	// ProbeFailures consecutive failed probes eject a replica (default 2).
	ProbeFailures int

	// EjectFailures consecutive proxied-request failures open a
	// replica's breaker — passive ejection (default 3; <0 disables).
	EjectFailures int
	// EjectOpenFor is how long an ejected replica is skipped before a
	// half-open trial request (default 2s).
	EjectOpenFor time.Duration
	// EjectProbes consecutive trial successes restore the replica
	// (default 1).
	EjectProbes int

	// HedgeQuantile is the latency quantile that arms the hedge timer:
	// a request still unanswered past that quantile of recent latencies
	// is re-issued to a second replica (default 0.95; <0 disables
	// hedging).
	HedgeQuantile float64
	// HedgeBudget caps hedges at this fraction of total requests
	// (default 0.1; <0 disables hedging).
	HedgeBudget float64
	// HedgeMin/HedgeMax clamp the hedge delay (defaults 1ms / 500ms).
	HedgeMin time.Duration
	HedgeMax time.Duration

	// Attempts bounds sequential failover attempts per request,
	// including the first (default 3).
	Attempts int
	// RequestTimeout is the end-to-end deadline per gateway request
	// (default 15s; <0 disables).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds the request body the gateway will buffer for
	// re-sending (default 16 MiB).
	MaxBodyBytes int64
	// Seed feeds the router's RNG (default 42).
	Seed uint64
	// Client overrides the backend HTTP client (tests).
	Client *http.Client
}

func (c Config) normalize() Config {
	if c.Policy == "" {
		c.Policy = PolicyP2C
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 2
	}
	if c.EjectFailures == 0 {
		c.EjectFailures = 3
	}
	if c.EjectOpenFor <= 0 {
		c.EjectOpenFor = 2 * time.Second
	}
	if c.EjectProbes <= 0 {
		c.EjectProbes = 1
	}
	if c.HedgeQuantile == 0 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeBudget == 0 {
		c.HedgeBudget = 0.1
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 500 * time.Millisecond
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		c.Client = &http.Client{Transport: tr}
	}
	return c
}

// Gateway is the cluster front tier. It implements http.Handler; the
// owner wires it into an http.Server and drives the lifecycle:
// BeginDrain, then http.Server.Shutdown (which waits for in-flight
// proxied requests), then Close.
type Gateway struct {
	cfg      Config
	set      *Set
	rt       *router
	mux      *http.ServeMux
	tracker  *quantileTracker
	budget   *hedgeBudget
	draining atomic.Bool
}

// New builds a Gateway over the configured replicas and starts health
// probing.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.normalize()
	if cfg.Policy != PolicyP2C && cfg.Policy != PolicyHash {
		return nil, fmt.Errorf("cluster: unknown policy %q (want %s or %s)", cfg.Policy, PolicyP2C, PolicyHash)
	}
	set, err := newSet(cfg)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:     cfg,
		set:     set,
		rt:      newRouter(cfg.Policy, cfg.Seed),
		mux:     http.NewServeMux(),
		tracker: newQuantileTracker(),
		budget:  &hedgeBudget{budget: cfg.HedgeBudget},
	}
	if cfg.HedgeQuantile < 0 {
		g.budget.budget = 0
	}
	g.mux.HandleFunc("/v1/predict", g.handlePredict)
	g.mux.HandleFunc("/v1/models", g.handleModels)
	g.mux.HandleFunc("/v1/replicas", g.handleReplicas)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/readyz", g.handleReadyz)
	g.mux.HandleFunc("/metricsz", g.handleMetricsz)
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Replicas exposes the set for admin operations (SIGHUP reload).
func (g *Gateway) Replicas() *Set { return g.set }

// BeginDrain flips /readyz to 503 and stops admitting new predictions.
// In-flight proxied requests keep running; call http.Server.Shutdown to
// wait for them — the same exact-drain ordering snapea-serve uses, one
// tier up: gateway drains first (stops sending), replicas drain after
// (finish what they accepted).
func (g *Gateway) BeginDrain() { g.draining.Store(true) }

// Close stops the health-probe loop. Call after Shutdown returned.
func (g *Gateway) Close() { g.set.Close() }

// attemptResult is one backend round-trip's outcome.
type attemptResult struct {
	rep      *Replica
	status   int
	header   http.Header
	body     []byte
	latency  time.Duration
	hedged   bool
	err      error // transport-level failure
	canceled bool  // the gateway cancelled it (hedge loser / shared deadline)
}

// retryable reports whether the outcome warrants trying another
// replica: transport errors (the replica is gone or unreachable) and
// 502/503 (the replica is draining or shedding — another replica can
// serve this read-only request right now). 429 is deliberately not
// retryable: it is admission backpressure, and converting it into load
// on a sibling would defeat the fleet's aggregate admission control.
func retryable(res attemptResult) bool {
	if res.canceled {
		return false
	}
	if res.err != nil {
		return true
	}
	return res.status == http.StatusBadGateway || res.status == http.StatusServiceUnavailable
}

// pickAdmitted routes one attempt: the policy proposes candidates and
// the per-replica breaker admits or refuses them (a refused candidate
// is excluded and the policy re-picks). Returns nil when the fleet is
// exhausted.
func (g *Gateway) pickAdmitted(model string, exclude map[*Replica]bool) *Replica {
	for {
		rep := g.rt.pick(g.set, model, exclude)
		if rep == nil {
			return nil
		}
		if err := rep.admit(); err != nil {
			exclude[rep] = true
			if metrics.Enabled() {
				metrics.RC("gateway.breaker_rejects", metrics.Labels{"replica": rep.URL}).Add(1)
			}
			continue
		}
		if metrics.Enabled() {
			metrics.RC("gateway.routes", metrics.Labels{"policy": g.cfg.Policy}).Add(1)
		}
		return rep
	}
}

// hedgeDelay computes the current hedge trigger: the tracked latency
// quantile clamped into [HedgeMin, HedgeMax]. Before the tracker has
// enough samples the floor applies — the budget, not the delay, is what
// bounds cold-start hedge spend.
//
//snapea:runtime
func (g *Gateway) hedgeDelay() (time.Duration, bool) {
	if g.cfg.HedgeQuantile <= 0 || g.cfg.HedgeBudget <= 0 {
		return 0, false
	}
	d := g.tracker.Quantile(g.cfg.HedgeQuantile)
	if d < g.cfg.HedgeMin {
		d = g.cfg.HedgeMin
	}
	if d > g.cfg.HedgeMax {
		d = g.cfg.HedgeMax
	}
	return d, true
}

// doHedged runs one request against the fleet: a primary attempt, an
// optional hedge to a second replica after the quantile-tracked delay,
// and sequential failover on retryable outcomes. The first acceptable
// answer wins and every other in-flight attempt is cancelled via its
// context (safe because /v1/predict is read-only — cancelling a loser
// abandons no state anywhere). Hedging is idempotent by construction
// for the same reason: two replicas computing the same answer is wasted
// work, never wrong work.
//
//snapea:runtime
func (g *Gateway) doHedged(ctx context.Context, model, path, query, contentType string, body []byte) attemptResult {
	exclude := make(map[*Replica]bool)
	results := make(chan attemptResult, g.cfg.Attempts+2)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	inflight := 0
	launch := func(hedged bool) bool {
		rep := g.pickAdmitted(model, exclude)
		if rep == nil {
			return false
		}
		exclude[rep] = true // one attempt per replica per request
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		inflight++
		go func() { results <- g.attempt(actx, rep, path, query, contentType, body, hedged) }()
		return true
	}

	if !launch(false) {
		return attemptResult{err: ErrNoReplicas}
	}
	attempts := 1

	var hedgeC <-chan time.Time
	if d, ok := g.hedgeDelay(); ok {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	hedgeFired := false
	settle := func(res attemptResult, won bool) attemptResult {
		if hedgeFired && metrics.Enabled() {
			if won && res.hedged {
				metrics.RC("gateway.hedges_won", nil).Add(1)
			} else {
				metrics.RC("gateway.hedges_wasted", nil).Add(1)
			}
		}
		return res
	}

	var last attemptResult
	for {
		select {
		case res := <-results:
			inflight--
			if !retryable(res) {
				return settle(res, true)
			}
			last = res
			// Failover: the failed attempt's replica is already excluded
			// (and its breaker recorded the failure inside attempt), so a
			// relaunch lands elsewhere.
			if attempts < g.cfg.Attempts && launch(false) {
				attempts++
				if metrics.Enabled() {
					metrics.RC("gateway.failovers", nil).Add(1)
				}
				continue
			}
			if inflight > 0 {
				continue // a hedge is still racing; it may yet answer
			}
			return settle(last, false)
		case <-hedgeC:
			hedgeC = nil
			if !g.budget.tryFire() {
				continue
			}
			if !launch(true) {
				g.budget.refund()
				continue
			}
			hedgeFired = true
			if metrics.Enabled() {
				metrics.RC("gateway.hedges_fired", nil).Add(1)
			}
		case <-ctx.Done():
			return settle(attemptResult{err: ctx.Err(), canceled: true}, false)
		}
	}
}

// attempt proxies the request to one replica and classifies the outcome
// for the replica's breaker: transport errors and 502/503 are failures
// (consecutive ones eject the replica), everything the replica actually
// answered — including 4xx and 500 — is proof of life. A response to an
// attempt the gateway itself cancelled records nothing: the loser of a
// hedge race is not evidence about the replica.
//
//snapea:runtime
func (g *Gateway) attempt(ctx context.Context, rep *Replica, path, query, contentType string, body []byte, hedged bool) attemptResult {
	start := time.Now()
	rep.inflight.Add(1)
	rep.requests.Add(1)
	if metrics.Enabled() {
		metrics.RG("gateway.replica_inflight", metrics.Labels{"replica": rep.URL}).Set(rep.inflight.Load())
	}
	defer func() {
		rep.inflight.Add(-1)
		if metrics.Enabled() {
			metrics.RG("gateway.replica_inflight", metrics.Labels{"replica": rep.URL}).Set(rep.inflight.Load())
		}
	}()

	res := attemptResult{rep: rep, hedged: hedged}
	target := rep.URL + path
	if query != "" {
		target += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			res.canceled, res.err = true, ctx.Err()
			return res
		}
		res.err = err
		rep.errors.Add(1)
		rep.record(err)
		return res
	}
	data, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.latency = time.Since(start)
	if rerr != nil {
		if ctx.Err() != nil {
			res.canceled, res.err = true, ctx.Err()
			return res
		}
		res.err = fmt.Errorf("cluster: read %s response: %w", rep.URL, rerr)
		rep.errors.Add(1)
		rep.record(res.err)
		return res
	}
	res.status, res.header, res.body = resp.StatusCode, resp.Header, data
	if res.status == http.StatusBadGateway || res.status == http.StatusServiceUnavailable {
		rep.errors.Add(1)
		if res.header.Get("X-Snapea-Quarantined") == "1" {
			// The replica's integrity layer quarantined this model: its
			// answers can't be trusted until it heals, so the 503 counts
			// against the replica's breaker like any failure — repeated
			// quarantine responses eject it and siblings absorb the load.
			if metrics.Enabled() {
				metrics.RC("gateway.quarantined_responses", metrics.Labels{"replica": rep.URL}).Add(1)
			}
			rep.record(fmt.Errorf("cluster: %s quarantined the model", rep.URL))
		} else {
			rep.record(fmt.Errorf("cluster: %s answered %d", rep.URL, res.status))
		}
	} else {
		rep.record(nil)
	}
	return res
}

// errorResponse mirrors serve's error body shape so clients see one
// schema whether they hit a replica or the gateway.
type errorResponse struct {
	Error string `json:"error"`
}

func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		g.fail(w, http.StatusMethodNotAllowed, errors.New("cluster: POST required"))
		return
	}
	if g.draining.Load() {
		w.Header().Set("Retry-After", "1")
		g.fail(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		g.fail(w, http.StatusBadRequest, fmt.Errorf("cluster: read request body: %w", err))
		return
	}
	g.budget.request()
	if metrics.Enabled() {
		metrics.RC("gateway.requests", nil).Add(1)
	}

	ctx := r.Context()
	if g.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.RequestTimeout)
		defer cancel()
	}
	model := r.URL.Query().Get("model")

	res := g.doHedged(ctx, model, "/v1/predict", r.URL.RawQuery, r.Header.Get("Content-Type"), body)
	if res.status == 0 {
		code := http.StatusBadGateway
		switch {
		case errors.Is(res.err, ErrNoReplicas):
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		case errors.Is(res.err, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		case errors.Is(res.err, context.Canceled):
			code = http.StatusGatewayTimeout
		}
		g.fail(w, code, res.err)
		return
	}

	// Pass the replica's answer through — status, body, and the headers
	// that matter (content type, backpressure hints, the per-response
	// serve observability headers) — plus the gateway's own provenance
	// headers so a client can see which replica answered and whether the
	// hedge won.
	for _, h := range []string{"Content-Type", "Retry-After", "X-Snapea-Degraded", "X-Snapea-Quarantined"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Snapea-Replica", res.rep.URL)
	if res.hedged {
		w.Header().Set("X-Snapea-Hedged", "1")
	} else {
		w.Header().Set("X-Snapea-Hedged", "0")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)

	if res.status == http.StatusOK {
		g.tracker.Observe(res.latency)
	}
	if metrics.Enabled() {
		metrics.RC("gateway.proxied", metrics.Labels{"code": strconv.Itoa(res.status)}).Add(1)
		metrics.RH("gateway.e2e_us", nil, latencyBoundsUS).Observe(time.Since(start).Microseconds())
	}
}

// handleModels proxies GET /v1/models to any routable replica: the
// fleet serves one model set, so any member's answer is the fleet's.
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	rep := g.pickAdmitted("", make(map[*Replica]bool))
	if rep == nil {
		g.fail(w, http.StatusServiceUnavailable, ErrNoReplicas)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.URL+"/v1/models", nil)
	if err != nil {
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		rep.record(err)
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	rep.record(nil)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleReplicas is the admin view: GET returns per-replica health,
// breaker position, in-flight and lifetime counts.
func (g *Gateway) handleReplicas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.fail(w, http.StatusMethodNotAllowed, errors.New("cluster: GET required"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Policy   string        `json:"policy"`
		Draining bool          `json:"draining"`
		Replicas []replicaInfo `json:"replicas"`
	}{Policy: g.cfg.Policy, Draining: g.draining.Load(), Replicas: g.set.infos()})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case g.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case g.set.Healthy() == 0:
		http.Error(w, "no healthy replicas", http.StatusServiceUnavailable)
	default:
		io.WriteString(w, "ready\n")
		for _, info := range g.set.infos() {
			fmt.Fprintf(w, "%s healthy=%v breaker=%s inflight=%d\n",
				info.URL, info.Healthy, info.Breaker, info.InFlight)
		}
	}
}

func (g *Gateway) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	metrics.Export(true).WriteJSON(w)
}

// fail writes the JSON error body and counts it.
func (g *Gateway) fail(w http.ResponseWriter, code int, err error) {
	if metrics.Enabled() {
		metrics.RC("gateway.errors", metrics.Labels{"code": strconv.Itoa(code)}).Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

// refund returns an unfired hedge claim (the budget was available but
// no second replica was).
func (hb *hedgeBudget) refund() { hb.fired.Add(-1) }

// latencyBoundsUS buckets microsecond latencies from 100µs to ~10s
// (same buckets as serve's, so gateway and replica histograms compare
// directly).
var latencyBoundsUS = []int64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000, 2500000, 5000000, 10000000}
