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
	// ErrNoReplicas means no healthy replica remained after per-request
	// exclusions (503).
	ErrNoReplicas = errors.New("cluster: no routable replica")
	// ErrDraining is the gateway-side drain gate (503 + Retry-After).
	ErrDraining = errors.New("cluster: gateway draining")
)

// routerSeed seeds P2C's RNG. Tests that need another sequence seed
// newRouter directly.
const routerSeed = 42

// maxBodyBytes bounds the request body the gateway buffers for
// re-sending.
const maxBodyBytes = 16 << 20

// Config parameterizes a Gateway. Zero values mean defaults; explicit
// negatives disable where noted.
type Config struct {
	// Replicas is the backend list (base URLs), fixed for the gateway's
	// lifetime.
	Replicas []string

	// ProbeInterval is the /readyz poll period (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 1s).
	ProbeTimeout time.Duration
	// ProbeFailures consecutive failed probes eject a replica (default 2).
	ProbeFailures int

	// Attempts bounds sequential failover attempts per request,
	// including the first (default 3).
	Attempts int
	// RequestTimeout is the end-to-end deadline per gateway request
	// (default 15s; <0 disables).
	RequestTimeout time.Duration
}

func (c Config) normalize() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 2
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 15 * time.Second
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
	draining atomic.Bool
}

// New validates the replica list, builds a Gateway over it and starts
// health probing.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.normalize()
	set, err := newSet(cfg)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg: cfg,
		set: set,
		rt:  newRouter(routerSeed),
		mux: http.NewServeMux(),
	}
	g.mux.HandleFunc("/v1/predict", g.handlePredict)
	g.mux.HandleFunc("/v1/models", g.handleModels)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/readyz", g.handleReadyz)
	g.mux.HandleFunc("/metricsz", g.handleMetricsz)
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// BeginDrain flips /readyz to 503 and stops admitting new predictions.
// In-flight proxied requests keep running; call http.Server.Shutdown to
// wait for them — the same exact-drain ordering snapea-serve uses, one
// tier up: gateway drains first (stops sending), replicas drain after
// (finish what they accepted).
func (g *Gateway) BeginDrain() { g.draining.Store(true) }

// Close stops the health-probe loops. Call after Shutdown returned.
func (g *Gateway) Close() { g.set.Close() }

// attemptResult is one backend round-trip's outcome.
type attemptResult struct {
	rep      *Replica
	status   int
	header   http.Header
	body     []byte
	err      error // transport-level failure
	canceled bool  // the request's own context ended (deadline or hang-up)
}

// retryable reports whether the outcome warrants trying another
// replica: transport errors (the replica is gone or unreachable) and
// 502/503 (the replica is draining, shedding or has the model
// quarantined — another replica can serve this read-only request right
// now). 429 is deliberately not retryable: it is admission
// backpressure, and converting it into load on a sibling would defeat
// the fleet's aggregate admission control.
func retryable(res attemptResult) bool {
	if res.canceled {
		return false
	}
	if res.err != nil {
		return true
	}
	return res.status == http.StatusBadGateway || res.status == http.StatusServiceUnavailable
}

// proxy runs one request against the fleet: pick a replica, attempt,
// and on a retryable outcome fail over to a replica this request has not
// tried, up to Attempts in all. The first non-retryable answer is
// returned; when the fleet or the attempts run out, the last retryable
// one is. Failover is safe without idempotency keys because /v1/predict
// is read-only.
//
//snapea:runtime
func (g *Gateway) proxy(ctx context.Context, path, query, contentType string, body []byte) attemptResult {
	var exclude map[*Replica]bool // allocated on the first failover
	res := attemptResult{err: ErrNoReplicas}
	for i := 0; i < g.cfg.Attempts; i++ {
		rep := g.rt.pick(g.set, exclude)
		if rep == nil {
			break
		}
		if metrics.Enabled() {
			metrics.RC("gateway.routes", nil).Add(1)
			if i > 0 {
				metrics.RC("gateway.failovers", nil).Add(1)
			}
		}
		if res = g.attempt(ctx, rep, path, query, contentType, body); !retryable(res) {
			break
		}
		if exclude == nil {
			exclude = make(map[*Replica]bool, len(g.set.replicas))
		}
		exclude[rep] = true // one attempt per replica per request
	}
	return res
}

// attempt proxies the request to one replica and reads the whole answer.
//
//snapea:runtime
func (g *Gateway) attempt(ctx context.Context, rep *Replica, path, query, contentType string, body []byte) attemptResult {
	rep.inflight.Add(1)
	if metrics.Enabled() {
		metrics.RG("gateway.replica_inflight", metrics.Labels{"replica": rep.URL}).Set(rep.inflight.Load())
	}
	defer func() {
		rep.inflight.Add(-1)
		if metrics.Enabled() {
			metrics.RG("gateway.replica_inflight", metrics.Labels{"replica": rep.URL}).Set(rep.inflight.Load())
		}
	}()

	res := attemptResult{rep: rep}
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
	// A failure after the request's own context ended is the deadline or
	// the client's hang-up, not the replica's fault.
	fail := func(err error) attemptResult {
		res.err = err
		if ctx.Err() != nil {
			res.canceled, res.err = true, ctx.Err()
		}
		return res
	}
	resp, err := g.set.client.Do(req)
	if err != nil {
		return fail(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail(fmt.Errorf("cluster: read %s response: %w", rep.URL, err))
	}
	res.status, res.header, res.body = resp.StatusCode, resp.Header, data
	if res.header.Get("X-Snapea-Quarantined") == "1" && metrics.Enabled() {
		// The replica's integrity layer quarantined this model; the 503
		// fails over like any other and siblings absorb the load.
		metrics.RC("gateway.quarantined_responses", metrics.Labels{"replica": rep.URL}).Add(1)
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		g.fail(w, http.StatusBadRequest, fmt.Errorf("cluster: read request body: %w", err))
		return
	}
	if metrics.Enabled() {
		metrics.RC("gateway.requests", nil).Add(1)
	}

	ctx := r.Context()
	if g.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.RequestTimeout)
		defer cancel()
	}

	res := g.proxy(ctx, "/v1/predict", r.URL.RawQuery, r.Header.Get("Content-Type"), body)
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
	// header so a client can see which replica answered.
	for _, h := range []string{"Content-Type", "Retry-After", "X-Snapea-Degraded", "X-Snapea-Quarantined"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Snapea-Replica", res.rep.URL)
	w.WriteHeader(res.status)
	w.Write(res.body)

	if metrics.Enabled() {
		metrics.RC("gateway.proxied", metrics.Labels{"code": strconv.Itoa(res.status)}).Add(1)
		metrics.RH("gateway.e2e_us", nil, latencyBoundsUS).Observe(time.Since(start).Microseconds())
	}
}

// handleModels proxies GET /v1/models to any healthy replica: the
// fleet serves one model set, so any member's answer is the fleet's.
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	rep := g.rt.pick(g.set, nil)
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
	resp, err := g.set.client.Do(req)
	if err != nil {
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
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
		for _, rep := range g.set.replicas {
			fmt.Fprintf(w, "%s healthy=%v inflight=%d\n", rep.URL, rep.healthy.Load(), rep.inflight.Load())
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

// latencyBoundsUS buckets microsecond latencies from 100µs to ~10s
// (same buckets as serve's, so gateway and replica histograms compare
// directly).
var latencyBoundsUS = []int64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000, 2500000, 5000000, 10000000}
