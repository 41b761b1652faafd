package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snapea/internal/faults"
	"snapea/internal/metrics"
	"snapea/internal/resilience"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// Errors the admission layer returns; the HTTP layer maps them to status
// codes (429, 503, 504).
var (
	ErrQueueFull    = errors.New("serve: queue full")
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrWatchdog is the watchdog verdict: the request's deadline passed
	// while its forward ran, and the forward was abandoned.
	ErrWatchdog = errors.New("serve: deadline exceeded during inference (watchdog)")
)

// response carries one request's result back to the handler.
type response struct {
	logits    []float32
	class     int
	queueWait time.Duration // admission → run slot
	inferTime time.Duration // Forward wall clock
	reduction float64       // MAC reduction (SnaPEA savings)
	degraded  bool          // served exact because the guardrail tripped
	// retryAfter is the open breaker's hint, set with resilience.ErrOpen.
	retryAfter time.Duration
	err        error
}

// gateConfig wires one gate's admission bound and supervision hooks. The
// resilience fields may be nil (disabled).
type gateConfig struct {
	label      metrics.Labels
	site       string // "model/mode", names serve-path fault sites
	queueDepth int
	// auditEvery runs every Nth healthy predictive forward with
	// CollectPrediction so the guardrail sees exact misprediction
	// counts; <= 0 disables auditing.
	auditEvery int64
	breaker    *resilience.Breaker
	guard      *resilience.Guardrail
	// fallback is the exact-mode network a degraded predictive model
	// serves with.
	fallback *snapea.Network
}

// gate is the per-(model, mode) admission gate: one request, one
// Forward. A request takes one of GOMAXPROCS run slots if one is free,
// or else one of queueDepth waiting places without blocking (or is
// refused with ErrQueueFull) and waits there under its own context for
// a slot; it runs its Forward on its own goroutine while holding the
// slot. Concurrent batch-1 forwards are cheaper per image than one
// batched forward on this engine, and more slots than cores buy nothing
// (DESIGN.md, "One request, one Forward"). Gates are per entry, so a
// wedged or failing model cannot touch another model's slots (the
// bulkhead).
type gate struct {
	net  *snapea.Network
	pool *tensorPool
	cfg  gateConfig

	// seq numbers forwards: the audit cadence and the deterministic
	// serve-path fault sites both key off it.
	seq atomic.Int64

	waiting chan struct{} // one token per taken waiting place
	slots   chan struct{} // one token per taken run slot

	mu       sync.RWMutex // guards closing vs. admission
	closing  bool
	admitted sync.WaitGroup // requests admitted and not yet answered
}

func newGate(net *snapea.Network, pool *tensorPool, cfg gateConfig) *gate {
	if cfg.queueDepth < 1 {
		cfg.queueDepth = 1
	}
	return &gate{
		net:     net,
		pool:    pool,
		cfg:     cfg,
		waiting: make(chan struct{}, cfg.queueDepth),
		slots:   make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// admit takes a free run slot (running) or else a waiting place, or
// refuses at once: ErrQueueFull when every place is taken,
// ErrShuttingDown once close began. A freed slot goes to a blocked
// waiter before any newcomer can take it, so waiters are served first.
// An admitted request must call admitted.Done once it has its answer —
// the drain contract.
func (g *gate) admit() (running bool, err error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closing {
		return false, ErrShuttingDown
	}
	select {
	case g.slots <- struct{}{}:
		running = true
	default:
		select {
		case g.waiting <- struct{}{}:
		default:
			return false, ErrQueueFull
		}
	}
	g.admitted.Add(1)
	return running, nil
}

// close stops admission and waits until every admitted request has its
// answer.
func (g *gate) close() {
	g.mu.Lock()
	g.closing = true
	g.mu.Unlock()
	g.admitted.Wait()
}

// run answers one request. It owns in from the call on. A request whose
// context ends while it waits for a slot gets the context's error (the
// HTTP layer's 504) and counts in serve.queue_timeouts. The breaker is
// asked only once the request holds its slot, right before its forward,
// so every admitted probe is followed by a Record.
func (g *gate) run(ctx context.Context, in *tensor.Tensor) response {
	enq := time.Now()
	running, err := g.admit()
	if err != nil {
		g.pool.Put(in)
		return response{err: err}
	}
	defer g.admitted.Done()
	if !running {
		select {
		case g.slots <- struct{}{}:
			<-g.waiting
		case <-ctx.Done():
			<-g.waiting
			g.pool.Put(in)
			if metrics.Enabled() {
				metrics.RC("serve.queue_timeouts", g.cfg.label).Add(1)
			}
			return response{err: ctx.Err()}
		}
	}
	defer func() { <-g.slots }()
	queueWait := time.Since(enq)
	if metrics.Enabled() {
		metrics.RH("serve.queue_wait_us", g.cfg.label, latencyBoundsUS).Observe(queueWait.Microseconds())
	}
	if ra, err := g.cfg.breaker.Allow(); err != nil {
		g.pool.Put(in)
		return response{err: err, retryAfter: ra}
	}
	r := g.execute(ctx, in)
	r.queueWait = queueWait
	return r
}

// execute runs one admitted forward and feeds its outcome to the breaker
// and, for audited or degraded forwards, to the guardrail. Mode
// selection: a degraded predictive model serves through its exact
// fallback (latency instead of silent accuracy loss); a healthy one
// periodically runs an audit forward with exact misprediction accounting.
func (g *gate) execute(ctx context.Context, in *tensor.Tensor) response {
	seq := g.seq.Add(1) - 1
	var bf faults.BatchFault
	if inj := g.net.Faults; inj != nil {
		bf = inj.BatchFault(g.cfg.site, seq)
	}
	net, opts := g.net, snapea.RunOpts{}
	degraded, audit := false, false
	if g.cfg.guard != nil {
		if g.cfg.guard.Degraded() && g.cfg.fallback != nil {
			net, degraded = g.cfg.fallback, true
		} else if g.cfg.auditEvery > 0 && seq%g.cfg.auditEvery == 0 {
			opts.CollectPrediction = true
			audit = true
		}
	}

	trace := snapea.NewNetTrace()
	ch := make(chan response, 1) // buffered: an abandoned forward must not block on send
	abandoned := new(atomic.Bool)
	start := time.Now()
	go func() { ch <- g.forward(net, in, opts, trace, bf, abandoned) }()
	r, ok := await(ctx, ch)
	if !ok {
		// The watchdog verdict. Whoever loses the abandoned CAS settles
		// the input tensor's fate: the handler marks it leaked
		// (serve.tensor_pool.leaks) the moment it abandons the forward,
		// and if the forward ever finishes it reclaims the tensor rather
		// than re-pooling it. A forward that finished in the same instant
		// won the CAS, and its answer stands.
		if abandoned.CompareAndSwap(false, true) {
			g.pool.noteLeak()
			r = response{err: ErrWatchdog}
			if metrics.Enabled() {
				metrics.RC("serve.watchdog_timeouts", g.cfg.label).Add(1)
			}
		} else {
			r = <-ch
		}
	}
	r.inferTime = time.Since(start)
	r.degraded = degraded
	g.cfg.breaker.Record(r.err)

	if metrics.Enabled() {
		metrics.RC("serve.batches", g.cfg.label).Add(1)
		if r.err != nil {
			metrics.RC("serve.batch_failures", g.cfg.label).Add(1)
		}
	}
	if r.err != nil {
		return r
	}
	r.reduction = trace.Reduction()
	switch {
	case degraded:
		g.cfg.guard.RecordDegraded()
		if metrics.Enabled() {
			metrics.RC("serve.degraded_batches", g.cfg.label).Add(1)
		}
	case audit:
		// Windows and mispredicted (speculatively zeroed, truly
		// positive) windows; the trace is complete once Forward returned.
		var windows, mispred int64
		for _, tr := range trace.Layers {
			windows += tr.Windows
			mispred += tr.SpecFN
		}
		g.cfg.guard.RecordAudit(windows, mispred)
		if metrics.Enabled() {
			metrics.RC("serve.audit_batches", g.cfg.label).Add(1)
			metrics.RC("serve.audit_windows", g.cfg.label).Add(windows)
			metrics.RC("serve.audit_mispredictions", g.cfg.label).Add(mispred)
		}
	}
	return r
}

// await waits for the forward's answer until the request's deadline and
// reports false if the deadline came first. A client that hangs up does
// not end the wait: its forward's outcome still feeds the breaker, and
// its slot stays taken until the forward ends or the deadline abandons
// it. Without a deadline the wait is unbounded.
func await(ctx context.Context, ch <-chan response) (response, bool) {
	select {
	case r := <-ch:
		return r, true
	case <-ctx.Done():
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return <-ch, true
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case r := <-ch:
		return r, true
	case <-t.C:
		return response{}, false
	}
}

// forward runs the input through the compiled network, converting an
// engine panic — or an injected one — into an error so one poisoned
// request cannot take the server down. It owns the input tensor: when
// forward finishes, however it finishes, the tensor returns to the pool
// if the request is still waiting for it, or is handed to reclaim if the
// watchdog abandoned it in the meantime. Injected faults apply here,
// under the watchdog, where a real stuck or failing kernel would surface.
func (g *gate) forward(net *snapea.Network, in *tensor.Tensor, opts snapea.RunOpts, trace *snapea.NetTrace, bf faults.BatchFault, abandoned *atomic.Bool) (r response) {
	defer func() {
		if abandoned.CompareAndSwap(false, true) {
			g.pool.Put(in)
		} else {
			g.pool.reclaim(in)
		}
		if p := recover(); p != nil {
			r = response{err: fmt.Errorf("serve: inference failed: %v", p)}
		}
	}()
	if bf.Delay > 0 {
		time.Sleep(bf.Delay)
	}
	if bf.Panic {
		panic("faults: injected serve panic")
	}
	if bf.Err != nil {
		return response{err: bf.Err}
	}
	out := net.Forward(in, opts, trace)
	return response{logits: append([]float32(nil), out.Data()...), class: out.ArgMax()}
}

// latencyBoundsUS buckets microsecond latencies from 100µs to ~10s.
var latencyBoundsUS = []int64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000, 2500000, 5000000, 10000000}
