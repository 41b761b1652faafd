package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"snapea/internal/faults"
	"snapea/internal/metrics"
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
	// retryAfter is the health verdict's hint, set with its err.
	retryAfter time.Duration
	err        error
}

// openGate readies the entry's admission gate — one request, one
// Forward. A request takes one of GOMAXPROCS run slots if one is free,
// or else one of queueDepth waiting places without blocking (or is
// refused with ErrQueueFull) and waits there under its own context for
// a slot; it runs its Forward on its own goroutine while holding the
// slot. Concurrent batch-1 forwards are cheaper per image than one
// batched forward on this engine, and more slots than cores buy nothing
// (DESIGN.md, "One request, one Forward"). Gates are per entry, so a
// wedged or failing model cannot touch another model's slots (the
// bulkhead). The entry's health starts at init and keeps time by now.
func (e *entry) openGate(queueDepth int, init state, now func() time.Time) {
	e.label = metrics.Labels{"model": e.key.Model, "mode": e.key.Mode}
	e.h = health{s: init, now: now, label: e.label}
	e.waiting = make(chan struct{}, max(queueDepth, 1))
	e.slots = make(chan struct{}, runtime.GOMAXPROCS(0))
}

// admit takes a free run slot (running) or else a waiting place, or
// refuses at once: ErrQueueFull when every place is taken,
// ErrShuttingDown once the entry is closing. A freed slot goes to a
// blocked waiter before any newcomer can take it, so waiters are served
// first. An admitted request must call admitted.Done once it has its
// answer — the drain contract, which holds because admission and
// retirement take the same health lock.
func (e *entry) admit() (running bool, err error) {
	e.h.mu.Lock()
	defer e.h.mu.Unlock()
	if e.h.s.closing {
		return false, ErrShuttingDown
	}
	select {
	case e.slots <- struct{}{}:
		running = true
	default:
		select {
		case e.waiting <- struct{}{}:
		default:
			return false, ErrQueueFull
		}
	}
	e.admitted.Add(1)
	return running, nil
}

// run answers one request. A request whose context ends while it waits
// for a slot gets the context's error (the HTTP layer's 504) and counts
// in serve.queue_timeouts. The health is asked only once the request
// holds its slot, right before its forward, so every admitted probe is
// followed by its outcome.
func (e *entry) run(ctx context.Context, in *tensor.Tensor) response {
	enq := time.Now()
	running, err := e.admit()
	if err != nil {
		return response{err: err}
	}
	defer e.admitted.Done()
	if !running {
		select {
		case e.slots <- struct{}{}:
			<-e.waiting
		case <-ctx.Done():
			<-e.waiting
			if metrics.Enabled() {
				metrics.RC("serve.queue_timeouts", e.label).Add(1)
			}
			return response{err: ctx.Err()}
		}
	}
	defer func() { <-e.slots }()
	queueWait := time.Since(enq)
	if metrics.Enabled() {
		metrics.RH("serve.queue_wait_us", e.label, latencyBoundsUS).Observe(queueWait.Microseconds())
	}
	v := e.h.apply(event{kind: evAdmit})
	if v.err != nil {
		return response{err: v.err, retryAfter: v.retryAfter}
	}
	r := e.execute(ctx, in, v.fallback)
	r.queueWait = queueWait
	return r
}

// execute runs one admitted forward and reports its outcome to the
// health, with the audit or the fallback service it ran. A degraded
// predictive model serves through its exact fallback (latency instead of
// silent accuracy loss); a guarded healthy one periodically runs an
// audit forward with exact misprediction accounting.
func (e *entry) execute(ctx context.Context, in *tensor.Tensor, fallback bool) response {
	seq := e.seq.Add(1) - 1
	var bf faults.BatchFault
	if inj := e.net.Faults; inj != nil {
		bf = inj.BatchFault(e.key.String(), seq)
	}
	net, opts := e.net, snapea.RunOpts{}
	audit := false
	if fallback {
		net = e.fallback
	} else if e.fallback != nil && e.auditEvery > 0 && seq%e.auditEvery == 0 {
		opts.CollectPrediction = true
		audit = true
	}

	trace := snapea.NewNetTrace()
	ch := make(chan response, 1) // buffered: an abandoned forward must not block on send
	abandoned := new(atomic.Bool)
	start := time.Now()
	go func() { ch <- e.forward(net, in, opts, trace, bf, abandoned) }()
	r, ok := await(ctx, ch)
	if !ok {
		// The watchdog verdict, unless a forward that finished in the
		// same instant won the abandoned CAS: then its answer stands.
		// An abandoned forward keeps running, and holding its input,
		// until it returns; serve.abandoned_forwards counts it till then.
		if abandoned.CompareAndSwap(false, true) {
			noteAbandoned(e.label, 1)
			r = response{err: ErrWatchdog}
			if metrics.Enabled() {
				metrics.RC("serve.watchdog_timeouts", e.label).Add(1)
			}
		} else {
			r = <-ch
		}
	}
	r.inferTime = time.Since(start)
	r.degraded = fallback

	if metrics.Enabled() {
		metrics.RC("serve.batches", e.label).Add(1)
		if r.err != nil {
			metrics.RC("serve.batch_failures", e.label).Add(1)
		}
	}
	if r.err != nil {
		e.h.apply(event{kind: evFail})
		return r
	}
	r.reduction = trace.Reduction()
	evs := [2]event{{kind: evOK}}
	n := 1
	switch {
	case fallback:
		evs[1], n = event{kind: evDegraded}, 2
		if metrics.Enabled() {
			metrics.RC("serve.degraded_batches", e.label).Add(1)
		}
	case audit:
		// Windows and mispredicted (speculatively zeroed, truly
		// positive) windows; the trace is complete once Forward returned.
		a := event{kind: evAudit}
		for _, tr := range trace.Layers {
			a.windows += tr.Windows
			a.mispred += tr.SpecFN
		}
		evs[1], n = a, 2
		if metrics.Enabled() {
			metrics.RC("serve.audit_batches", e.label).Add(1)
			metrics.RC("serve.audit_windows", e.label).Add(a.windows)
			metrics.RC("serve.audit_mispredictions", e.label).Add(a.mispred)
		}
	}
	// A forward that finished after its entry was quarantined is not
	// answered: the state at its outcome decides, not the state at its
	// admission.
	if v := e.h.apply(evs[:n]...); v.err != nil {
		return response{err: v.err, retryAfter: v.retryAfter, inferTime: r.inferTime}
	}
	return r
}

// await waits for the forward's answer until the request's deadline and
// reports false if the deadline came first. A client that hangs up does
// not end the wait: its forward's outcome still feeds the health, and
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
// request cannot take the server down. When forward finishes, however
// it finishes, it wins the abandoned CAS if the request still waits for
// its answer, and otherwise leaves the count of abandoned forwards.
// Injected faults apply here, under the watchdog, where a real stuck or
// failing kernel would surface.
func (e *entry) forward(net *snapea.Network, in *tensor.Tensor, opts snapea.RunOpts, trace *snapea.NetTrace, bf faults.BatchFault, abandoned *atomic.Bool) (r response) {
	defer func() {
		if !abandoned.CompareAndSwap(false, true) {
			noteAbandoned(e.label, -1)
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
	return response{logits: out.Data(), class: out.ArgMax()}
}

// noteAbandoned moves serve.abandoned_forwards, the count of abandoned
// forwards still running, by d. Every entry of the label moves the one
// gauge by its own abandons and returns, so it sums them: two servers in
// one process, or a healed entry and the one it replaced.
func noteAbandoned(lbl metrics.Labels, d int64) {
	if metrics.Enabled() {
		metrics.RG("serve.abandoned_forwards", lbl).Add(d)
	}
}

// latencyBoundsUS buckets microsecond latencies from 100µs to ~10s.
var latencyBoundsUS = []int64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000, 2500000, 5000000, 10000000}
