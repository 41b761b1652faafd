// Package serve is the inference serving subsystem: a stdlib-only HTTP
// server that runs compiled SnaPEA networks under concurrent load,
// making the engine's compute savings observable as request latency.
//
// Architecture:
//
//   - a model registry lazily compiles and caches snapea.Network plans
//     keyed by (model, mode) with singleflight dedup, so a burst of cold
//     requests compiles once (registry.go);
//   - a per-model admission gate runs one batch-1 Forward per request:
//     a request takes a free one of GOMAXPROCS run slots, or else one of
//     QueueDepth waiting places (429 with Retry-After when those are
//     full too) and waits there under its deadline (504 if the deadline
//     comes first); its Forward runs on its own goroutine with the
//     request deadline as the watchdog (gate.go);
//   - each entry's health — breaker, accuracy guardrail, integrity
//     quarantine and retirement — is one state changed by one pure
//     transition function (health.go);
//   - graceful shutdown stops admission and answers every admitted
//     request before Close returns.
//
// All serve metrics are runtime metrics: queue waits and which requests
// overlap depend on arrival timing and scheduling, so none of them may
// enter the deterministic snapshot section (see DESIGN.md, "Serving").
package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"snapea/internal/faults"
	"snapea/internal/metrics"
	"snapea/internal/models"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// Sentinel errors the HTTP layer maps to statuses: errUnknownModel to
// 404, errBadRequest to 400.
var (
	errUnknownModel = errors.New("serve: unknown model")
	errBadRequest   = errors.New("serve: bad request")
	// errQuarantined maps to 503: the model's integrity layer detected
	// corruption and is healing it; clients should retry after the hint.
	errQuarantined = errors.New("serve: model quarantined")
)

// Config parameterizes a Server.
type Config struct {
	// Models to compile at startup; /readyz reports 200 only after all
	// of them are ready. Other models still compile on demand.
	Models []string
	// Scale/Classes/Seed parameterize model builds (see internal/models).
	Scale   models.Scale
	Classes int
	Seed    uint64
	// NegOrder selects the engine's negative-weight ordering.
	NegOrder snapea.NegOrder
	// ParamsFiles maps model names to Algorithm 1 parameter files for
	// predictive-mode serving.
	ParamsFiles map[string]string
	// QueueDepth bounds the requests each model holds waiting for a run
	// slot; an arrival beyond it is rejected with 429 (default 64).
	QueueDepth int
	// RequestTimeout is the per-request deadline applied on top of the
	// client's context (default 5s; <0 disables). It is also the
	// watchdog: a forward still running past it fails with ErrWatchdog
	// and is abandoned, isolating a hung model from the rest of the
	// server.
	RequestTimeout time.Duration
	// BreakerFailures consecutive failed forwards open a model's circuit
	// breaker (default 5; <0 disables the breaker entirely).
	BreakerFailures int
	// MispredictBudget is the accuracy guardrail's error budget: the
	// tolerated fraction of mispredicted (wrongly speculative-zeroed)
	// windows over the audit window. Exceeding it degrades a predictive
	// model to exact execution until the cooldown elapses (default 0 =
	// guardrail disabled).
	MispredictBudget float64
	// AuditEvery runs every Nth healthy predictive forward with exact
	// misprediction accounting (RunOpts.CollectPrediction) to feed the
	// guardrail; auditing costs the speculated windows' dense MACs, so
	// the cadence trades oversight for throughput (default 8; <0
	// disables auditing).
	AuditEvery int64
	// Faults, when enabled, compiles every network through the fault
	// injector — chaos testing for the serving path.
	Faults faults.Config

	// Integrity layer (see internal/integrity and DESIGN.md, "Integrity
	// and self-healing").

	// ScrubInterval is the cadence of the background scrubber re-hashing
	// each served model's compiled state against its load-time digests
	// (default 30s; <0 disables scrubbing).
	ScrubInterval time.Duration
	// CanaryEvery is the cadence of the canary self-test replaying each
	// model's golden probe (default 60s; <0 disables the canary entirely,
	// startup check included — required for chaos configs that
	// intentionally serve corrupted activations).
	CanaryEvery time.Duration
	// RequireChecksums rejects params files that carry no checksums
	// block; by default legacy params load unchecked.
	RequireChecksums bool
}

func (c Config) normalize() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 5
	}
	if c.AuditEvery == 0 {
		c.AuditEvery = 8
	}
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.ScrubInterval == 0 {
		c.ScrubInterval = 30 * time.Second
	}
	if c.CanaryEvery == 0 {
		c.CanaryEvery = 60 * time.Second
	}
	return c
}

// Server is the inference server. It implements http.Handler; the owner
// wires it into an http.Server (or httptest) and drives the lifecycle:
// Preload, serve traffic, then BeginDrain + http.Server.Shutdown +
// Close.
type Server struct {
	cfg      Config
	reg      *registry
	pool     *tensorPool
	mux      *http.ServeMux
	ready    atomic.Bool
	draining atomic.Bool
}

// New builds a Server. Call Preload to compile the configured models and
// flip readiness.
func New(cfg Config) *Server {
	cfg = cfg.normalize()
	pool := newTensorPool()
	s := &Server{
		cfg:  cfg,
		reg:  newRegistry(cfg, pool),
		pool: pool,
		mux:  http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	if len(cfg.Models) == 0 {
		s.ready.Store(true)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Preload compiles every configured model in exact mode (plus predictive
// for models with a registered params file) and then marks the server
// ready. Returns the first compile error.
func (s *Server) Preload(ctx context.Context) error {
	for _, name := range s.cfg.Models {
		if _, err := s.reg.get(ctx, modelKey{Model: name, Mode: ModeExact}); err != nil {
			return err
		}
		if _, ok := s.cfg.ParamsFiles[name]; ok {
			if _, err := s.reg.get(ctx, modelKey{Model: name, Mode: ModePredictive}); err != nil {
				return err
			}
		}
	}
	s.ready.Store(true)
	return nil
}

// BeginDrain flips /readyz to 503 so load balancers stop routing here,
// and stops admitting new predictions (503 + Retry-After). Requests
// already admitted keep draining: the gates stay open until Close.
// Call it before http.Server.Shutdown, which waits for those in-flight
// handlers.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops admission and drains every accepted request. Call after
// http.Server.Shutdown has returned (no in-flight handlers remain).
func (s *Server) Close() { s.reg.close() }

// predictResponse is the JSON reply of /v1/predict.
type predictResponse struct {
	Model        string    `json:"model"`
	Mode         string    `json:"mode"`
	Class        int       `json:"class"`
	Logits       []float32 `json:"logits"`
	BatchSize    int       `json:"batch_size"` // always 1: a forward is a batch of one
	QueueUS      int64     `json:"queue_us"`
	InferUS      int64     `json:"infer_us"`
	TotalUS      int64     `json:"total_us"`
	MacReduction float64   `json:"mac_reduction"`
	// Degraded marks a predictive request served through the exact
	// fallback because the accuracy guardrail tripped.
	Degraded bool `json:"degraded,omitempty"`
}

// errorResponse is the JSON reply on any non-2xx status.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !s.ready.Load():
		http.Error(w, "compiling models", http.StatusServiceUnavailable)
	default:
		io.WriteString(w, "ready\n")
		// Per-model supervision status, one line each — a degraded or
		// broken model does not flip overall readiness (the server still
		// serves its other models), but operators see it here.
		for _, e := range s.reg.list() {
			st := e.state()
			fmt.Fprintf(w, "%s breaker=%s degraded=%v quarantined=%v\n",
				e.key, breakerNames[st.breaker()], st.degraded, st.phase == quarantined)
		}
	}
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	metrics.Export(true).WriteJSON(w)
}

// modelInfo is one entry of /v1/models.
type modelInfo struct {
	Model      string `json:"model"`
	Mode       string `json:"mode"`
	InputShape string `json:"input_shape"`
	InputElems int    `json:"input_elems"`
	Classes    int    `json:"classes"`
	// Breaker is the model's circuit-breaker position: "closed", "open",
	// or "half-open".
	Breaker string `json:"breaker"`
	// Degraded reports the accuracy guardrail forcing exact execution.
	Degraded bool `json:"degraded"`
	// Quarantined reports the integrity layer holding the model out of
	// service while it heals.
	Quarantined bool `json:"quarantined"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	var out []modelInfo
	for _, e := range s.reg.list() {
		st := e.state()
		out = append(out, modelInfo{
			Model:       e.key.Model,
			Mode:        e.key.Mode,
			InputShape:  e.inShape.String(),
			InputElems:  e.inShape.Elems(),
			Classes:     e.classes,
			Breaker:     breakerNames[st.breaker()],
			Degraded:    st.degraded,
			Quarantined: st.phase == quarantined,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Models []modelInfo `json:"models"`
	}{Models: out})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, errors.New("serve: POST required"))
		return
	}
	model := r.URL.Query().Get("model")
	if model == "" && len(s.cfg.Models) > 0 {
		model = s.cfg.Models[0]
	}
	if model == "" {
		s.fail(w, r, http.StatusBadRequest, errors.New("serve: missing model parameter"))
		return
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = ModeExact
	}

	// Drain gate: after BeginDrain, new work is refused up here rather
	// than racing the gate teardown below. A request that passed this
	// check before the flag flipped is admitted work — http.Server.
	// Shutdown waits for its handler, and the gates are not closed until
	// after Shutdown returns, so it still gets a real answer.
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		s.fail(w, r, http.StatusServiceUnavailable, ErrShuttingDown)
		return
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	e, err := s.reg.get(ctx, modelKey{Model: model, Mode: mode})
	if err != nil {
		s.refuse(w, r, nil, err, 0)
		return
	}

	// Quarantine gate: a model whose integrity layer detected corruption
	// sheds all traffic with a fast 503 — never a wrong answer — before
	// its body is read, while the heal loop recompiles it from the
	// artifact.
	if st := e.state(); st.phase == quarantined {
		v := st.shed()
		s.refuse(w, r, e.label, v.err, v.retryAfter)
		return
	}

	input, err := s.decodeInput(r, e)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}

	resp := e.run(ctx, input)
	if resp.err != nil {
		s.refuse(w, r, e.label, resp.err, resp.retryAfter)
		return
	}

	total := time.Since(start)
	if metrics.Enabled() {
		lbl := metrics.Labels{"model": model, "mode": mode}
		metrics.RC("serve.requests", lbl).Add(1)
		metrics.RH("serve.e2e_us", lbl, latencyBoundsUS).Observe(total.Microseconds())
	}
	w.Header().Set("Content-Type", "application/json")
	// Per-response observability header: the cluster gateway (and any
	// operator with curl -i) reads degrade behavior off the response
	// itself instead of scraping /metricsz.
	if resp.degraded {
		w.Header().Set("X-Snapea-Degraded", "1")
	} else {
		w.Header().Set("X-Snapea-Degraded", "0")
	}
	json.NewEncoder(w).Encode(predictResponse{
		Model:        model,
		Mode:         mode,
		Class:        resp.class,
		Logits:       resp.logits,
		BatchSize:    1,
		QueueUS:      resp.queueWait.Microseconds(),
		InferUS:      resp.inferTime.Microseconds(),
		TotalUS:      total.Microseconds(),
		MacReduction: resp.reduction,
		Degraded:     resp.degraded,
	})
}

// decodeInput reads the request body as either JSON ({"input": [...]})
// or raw little-endian float32 (Content-Type: application/octet-stream)
// into a pooled {1,C,H,W} tensor. The input must carry exactly the
// model's input element count and be finite — early termination is
// undefined on non-finite partial sums.
func (s *Server) decodeInput(r *http.Request, e *entry) (t *tensor.Tensor, err error) {
	elems := e.inShape.Elems()
	limit := int64(elems)*4 + (1 << 16)
	body := http.MaxBytesReader(nil, r.Body, limit)
	t = s.pool.Get(e.inShape)
	defer func() {
		if err != nil {
			s.pool.Put(t)
			t = nil
		}
	}()
	// Read into one buffer sized from Content-Length (a hint, capped by
	// the limit): growing from nothing copies an 8 KB body about four
	// times over. What is read, and every error, is the same either way.
	var buf bytes.Buffer
	if n := min(r.ContentLength, limit); n > 0 {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, rerr := buf.ReadFrom(body)
	raw := buf.Bytes()
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		if rerr != nil {
			return nil, fmt.Errorf("serve: read body: %w", rerr)
		}
		if len(raw) != elems*4 {
			return nil, fmt.Errorf("serve: raw input is %d bytes, want %d (%d float32, shape %s)",
				len(raw), elems*4, elems, e.inShape)
		}
		d := t.Data()
		for i := range d {
			d[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
		}
	} else if rerr != nil || !parseInput(raw, t.Data()) {
		// Not the canonical body (see parseInput): encoding/json decides,
		// over the same stream — the bytes already read, then body again,
		// whose sticky EOF or read error ends it as it always did.
		var in struct {
			Input []float32 `json:"input"`
		}
		if jerr := json.NewDecoder(io.MultiReader(bytes.NewReader(raw), body)).Decode(&in); jerr != nil {
			return nil, fmt.Errorf("serve: decode JSON body: %w", jerr)
		}
		if len(in.Input) != elems {
			return nil, fmt.Errorf("serve: input has %d elements, want %d (shape %s)",
				len(in.Input), elems, e.inShape)
		}
		copy(t.Data(), in.Input)
	}
	// One boundary scan via the engine's shared validator; the layers
	// below run unchecked (see snapea.FirstNonFinite on why once is
	// enough).
	if i := snapea.FirstNonFinite(t.Data()); i >= 0 {
		return nil, fmt.Errorf("serve: non-finite input at element %d", i)
	}
	return t, nil
}

// refuse answers a request the registry, the gate or the entry's health
// turned away: the error decides the status, the Retry-After hint and
// the quarantine marker. lbl labels the breaker and quarantine counters.
func (s *Server) refuse(w http.ResponseWriter, r *http.Request, lbl metrics.Labels, err error, wait time.Duration) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueueFull):
		// A slot frees within one Forward; a second is the smallest
		// hint the header can carry (the gateway writes the same).
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, errOpen):
		// While this model's forwards are failing, its load is shed
		// instead of run into a broken pipeline. The hint is the
		// breaker's remaining open time, so well-behaved clients return
		// right when probes begin.
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfter(wait))
		if metrics.Enabled() {
			metrics.RC("serve.breaker_rejects", lbl).Add(1)
		}
	case errors.Is(err, errQuarantined):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfter(wait))
		w.Header().Set("X-Snapea-Quarantined", "1")
		if metrics.Enabled() {
			metrics.RC("integrity.quarantine_rejects", lbl).Add(1)
		}
	case errors.Is(err, ErrShuttingDown):
		code = http.StatusServiceUnavailable
	case errors.Is(err, errUnknownModel):
		code = http.StatusNotFound
	case errors.Is(err, errBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrWatchdog),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		code = http.StatusGatewayTimeout
	}
	s.fail(w, r, code, err)
}

// fail writes a JSON error body with the mapped status and counts it.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, code int, err error) {
	if metrics.Enabled() {
		lbl := metrics.Labels{"code": strconv.Itoa(code)}
		metrics.RC("serve.errors", lbl).Add(1)
		if code == http.StatusTooManyRequests {
			metrics.RC("serve.rejects", nil).Add(1)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

// retryAfter renders a back-off hint (breaker open time, heal backoff)
// in the whole seconds Retry-After requires, rounded up so a client that
// honors it does not return early, and never less than one.
func retryAfter(wait time.Duration) string {
	secs := int64((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
