package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snapea/internal/faults"
	"snapea/internal/metrics"
	"snapea/internal/resilience"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// Errors the admission and batching layer returns; the HTTP layer maps
// them to status codes (429, 503, 504).
var (
	ErrQueueFull    = errors.New("serve: queue full")
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrBatchDeadline is the watchdog verdict: a batch execution
	// exceeded its deadline and was abandoned. Only the hung batch's own
	// requests fail; the dispatcher moves on and other models are
	// unaffected.
	ErrBatchDeadline = errors.New("serve: batch deadline exceeded (watchdog)")
)

// request is one admitted prediction waiting for a batch slot. The
// response channel is buffered so the dispatcher never blocks on a
// handler that already gave up.
type request struct {
	ctx   context.Context
	input *tensor.Tensor // {1,C,H,W}, owned by the batcher once enqueued
	enq   time.Time
	resp  chan response
	// done makes reply idempotent: normal fan-out and the dispatcher's
	// panic backstop can both try to answer, and exactly one wins.
	done atomic.Bool
}

// reply delivers the response unless one was already delivered.
func (req *request) reply(r response) {
	if req.done.CompareAndSwap(false, true) {
		req.resp <- r
	}
}

// response carries one request's result back from the dispatcher.
type response struct {
	logits    []float32
	class     int
	batch     int           // live size of the batch this request ran in
	queueWait time.Duration // enqueue → dispatch
	inferTime time.Duration // batch Forward wall clock
	reduction float64       // batch-level MAC reduction (SnaPEA savings)
	degraded  bool          // served exact because the guardrail tripped
	err       error
}

// batcherConfig wires one batcher's scheduling knobs and supervision
// hooks. The resilience fields may be nil (disabled).
type batcherConfig struct {
	label      metrics.Labels
	site       string // "model/mode", names serve-path fault sites
	batchMax   int
	queueDepth int
	// deadline is the watchdog budget for one batch execution; <= 0
	// disables the watchdog.
	deadline time.Duration
	// auditEvery runs every Nth healthy predictive batch with
	// CollectPrediction so the guardrail sees exact misprediction
	// counts; <= 0 disables auditing.
	auditEvery int64
	breaker    *resilience.Breaker
	guard      *resilience.Guardrail
	// fallback is the exact-mode network a degraded predictive model
	// serves with.
	fallback *snapea.Network
}

// batcher is the per-(model, mode) dynamic micro-batching scheduler:
// requests queue into a bounded channel, and a single dispatcher
// goroutine blocks for the first one, takes whatever else is already
// queued up to batchMax, and runs — it never waits for a request that
// has not arrived. A batch larger than one is therefore exactly the
// requests that queued while the previous Forward ran: batching costs no
// latency when the server is idle and grows with load on its own (the
// zero-delay default of Triton's and TF-Serving's dynamic batchers; see
// DESIGN.md, "Micro-batching"). One dispatcher per compiled
// network keeps batch execution serial per model — the intra-batch
// parallelism comes from the engine's worker pool — while different
// models batch and execute independently (the bulkhead: a wedged or
// failing model cannot touch another model's dispatcher or queue).
type batcher struct {
	net  *snapea.Network
	pool *tensorPool
	cfg  batcherConfig

	// batchSeq numbers dispatched batches: the audit cadence and the
	// deterministic serve-path fault sites both key off it.
	batchSeq atomic.Int64

	mu      sync.RWMutex // guards closing vs. enqueue
	closing bool
	queue   chan *request
	done    chan struct{}
}

func newBatcher(net *snapea.Network, pool *tensorPool, cfg batcherConfig) *batcher {
	if cfg.batchMax < 1 {
		cfg.batchMax = 1
	}
	if cfg.queueDepth < 1 {
		cfg.queueDepth = 1
	}
	b := &batcher{
		net:   net,
		pool:  pool,
		cfg:   cfg,
		queue: make(chan *request, cfg.queueDepth),
		done:  make(chan struct{}),
	}
	go b.supervise()
	return b
}

// enqueue admits a request or rejects it immediately: ErrQueueFull when
// the bounded queue is at depth (the caller answers 429), ErrShuttingDown
// once close began. An admitted request is guaranteed a response on its
// resp channel — the drain contract.
func (b *batcher) enqueue(req *request) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closing {
		return ErrShuttingDown
	}
	select {
	case b.queue <- req:
		if metrics.Enabled() {
			metrics.RG("serve.queue_depth", b.cfg.label).Set(int64(len(b.queue)))
		}
		return nil
	default:
		return ErrQueueFull
	}
}

// close stops admission, lets the dispatcher drain every already-accepted
// request, and waits for it to exit.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closing {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closing = true
	b.mu.Unlock()
	close(b.queue)
	<-b.done
}

// supervise owns the dispatcher's lifecycle: dispatch exits cleanly
// when the queue closes, and is restarted if it ever dies otherwise —
// one crashed dispatcher must not brick its model while the rest of the
// server keeps serving.
func (b *batcher) supervise() {
	defer close(b.done)
	for !b.dispatch() {
		if metrics.Enabled() {
			metrics.RC("serve.dispatcher_restarts", b.cfg.label).Add(1)
		}
	}
}

// dispatch is the batcher's scheduler loop. It returns true on clean
// shutdown (queue closed and drained). A panic escaping batch handling
// answers the in-flight batch with an error — the drain contract holds
// even then — and returns false so supervise restarts the loop.
func (b *batcher) dispatch() (clean bool) {
	var cur []*request
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("serve: dispatcher failure: %v", r)
			for _, req := range cur {
				req.reply(response{err: err})
			}
			// A batch that killed its dispatcher is a batch failure too.
			b.cfg.breaker.Record(err)
		}
	}()
	for {
		first, ok := <-b.queue
		if !ok {
			return true
		}
		batch := []*request{first}
	collect:
		for len(batch) < b.cfg.batchMax {
			select {
			case req, ok := <-b.queue:
				if !ok {
					// Queue closed: run what we have; the next blocking
					// receive observes the close and exits.
					break collect
				}
				batch = append(batch, req)
			default:
				break collect
			}
		}
		cur = batch
		b.runBatch(batch)
		cur = nil
	}
}

// runBatch drops requests whose deadline expired while queued (they get
// a 504; the batch proceeds without them), concatenates the survivors
// into one {N,C,H,W} tensor, runs a single Forward under the watchdog,
// and fans the outputs back per request. The batch outcome — success,
// failure, or watchdog timeout — is recorded with the circuit breaker;
// audited predictive batches additionally feed the misprediction
// guardrail.
func (b *batcher) runBatch(batch []*request) {
	dispatched := time.Now()
	live := batch[:0]
	for _, req := range batch {
		if err := req.ctx.Err(); err != nil {
			b.pool.Put(req.input)
			req.input = nil
			req.reply(response{err: context.DeadlineExceeded})
			if metrics.Enabled() {
				metrics.RC("serve.queue_timeouts", b.cfg.label).Add(1)
			}
			continue
		}
		live = append(live, req)
	}
	if metrics.Enabled() {
		metrics.RG("serve.queue_depth", b.cfg.label).Set(int64(len(b.queue)))
	}
	if len(live) == 0 {
		return
	}

	in := live[0].input.Shape()
	bt := b.pool.Get(tensor.Shape{N: len(live), C: in.C, H: in.H, W: in.W})
	per := in.C * in.H * in.W
	for i, req := range live {
		copy(bt.Data()[i*per:(i+1)*per], req.input.Data())
		b.pool.Put(req.input)
		req.input = nil
	}

	// Chaos injection happens at two levels: a panic fault fires here in
	// the dispatcher itself — exercising the supervisor's
	// answer-and-restart path — while delay and error faults ride inside
	// the forward call, under the watchdog, where a real stuck or failing
	// kernel would surface.
	seq := b.batchSeq.Add(1) - 1
	var bf faults.BatchFault
	if inj := b.net.Faults; inj != nil {
		bf = inj.BatchFault(b.cfg.site, seq)
	}
	if bf.Panic {
		panic("faults: injected dispatcher panic")
	}

	// Mode selection: a degraded predictive model serves through its
	// exact fallback (latency instead of silent accuracy loss); a
	// healthy one periodically runs an audit batch with exact
	// misprediction accounting for the guardrail.
	net, opts := b.net, snapea.RunOpts{}
	degraded, audit := false, false
	if b.cfg.guard != nil {
		if b.cfg.guard.Degraded() && b.cfg.fallback != nil {
			net, degraded = b.cfg.fallback, true
		} else if b.cfg.auditEvery > 0 && seq%b.cfg.auditEvery == 0 {
			opts.CollectPrediction = true
			audit = true
		}
	}

	trace := snapea.NewNetTrace()
	start := time.Now()
	out, err := b.execute(net, bt, opts, trace, bf)
	inferTime := time.Since(start)
	b.cfg.breaker.Record(err)

	if metrics.Enabled() {
		metrics.RC("serve.batches", b.cfg.label).Add(1)
		if len(live) > 1 {
			metrics.RC("serve.batch_gt1", b.cfg.label).Add(1)
		}
		metrics.RH("serve.batch_size", b.cfg.label, []int64{1, 2, 4, 8, 16, 32, 64}).Observe(int64(len(live)))
		if err != nil {
			metrics.RC("serve.batch_failures", b.cfg.label).Add(1)
		}
	}

	var reduction float64
	if err == nil {
		reduction = trace.Reduction()
		switch {
		case degraded:
			b.cfg.guard.RecordDegraded()
			if metrics.Enabled() {
				metrics.RC("serve.degraded_batches", b.cfg.label).Add(1)
			}
		case audit:
			windows, mispred := traceTotals(trace)
			b.cfg.guard.RecordAudit(windows, mispred)
			if metrics.Enabled() {
				metrics.RC("serve.audit_batches", b.cfg.label).Add(1)
				metrics.RC("serve.audit_windows", b.cfg.label).Add(windows)
				metrics.RC("serve.audit_mispredictions", b.cfg.label).Add(mispred)
			}
		}
	}

	for i, req := range live {
		r := response{
			batch:     len(live),
			queueWait: dispatched.Sub(req.enq),
			inferTime: inferTime,
			reduction: reduction,
			degraded:  degraded,
			err:       err,
		}
		if err == nil {
			view := out.Batch(i)
			r.logits = append([]float32(nil), view.Data()...)
			r.class = view.ArgMax()
		}
		if metrics.Enabled() {
			metrics.RH("serve.queue_wait_us", b.cfg.label, latencyBoundsUS).Observe(r.queueWait.Microseconds())
		}
		req.reply(r)
	}
}

// execute runs forward under the batch watchdog. On deadline the batch
// is abandoned: the hung batch's requests fail with ErrBatchDeadline
// and the dispatcher is free to serve the next batch, while the
// abandoned goroutine keeps running with the batch tensor. Whoever
// loses the abandoned CAS settles that tensor's fate — the watchdog
// marks it leaked (serve.tensor_pool.leaks) the moment it abandons the
// batch, and if the forward ever finishes it reclaims the tensor rather
// than re-pooling it. A forward that never finishes leaves the leak
// counted forever, which is exactly what an operator staring at a
// rising serve.tensor_pool.leaked gauge needs to see.
func (b *batcher) execute(net *snapea.Network, in *tensor.Tensor, opts snapea.RunOpts, trace *snapea.NetTrace, bf faults.BatchFault) (*tensor.Tensor, error) {
	if b.cfg.deadline <= 0 {
		return b.forward(net, in, opts, trace, bf, nil)
	}
	type result struct {
		out *tensor.Tensor
		err error
	}
	ch := make(chan result, 1) // buffered: an abandoned forward must not leak on send
	abandoned := new(atomic.Bool)
	go func() {
		out, err := b.forward(net, in, opts, trace, bf, abandoned)
		ch <- result{out, err}
	}()
	timer := time.NewTimer(b.cfg.deadline)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-timer.C:
		if abandoned.CompareAndSwap(false, true) {
			b.pool.noteLeak()
		}
		if metrics.Enabled() {
			metrics.RC("serve.watchdog_timeouts", b.cfg.label).Add(1)
		}
		return nil, ErrBatchDeadline
	}
}

// forward runs the batch through the compiled network, converting an
// engine panic (the hardened path for malformed engine state) into an
// error so one poisoned batch cannot take the dispatcher down. It owns
// the batch tensor: when forward finishes — however it finishes — the
// tensor returns to the pool if the batch is still live, or is handed
// to reclaim if the watchdog abandoned it in the meantime (abandoned is
// nil when no watchdog is armed). The CAS keeps the abandoned-goroutine
// path from recycling a buffer the pool already replaced. Injected
// delay and error faults apply here, under the watchdog, where a real
// stuck or failing kernel would surface.
func (b *batcher) forward(net *snapea.Network, in *tensor.Tensor, opts snapea.RunOpts, trace *snapea.NetTrace, bf faults.BatchFault, abandoned *atomic.Bool) (out *tensor.Tensor, err error) {
	defer func() {
		if abandoned == nil || abandoned.CompareAndSwap(false, true) {
			b.pool.Put(in)
		} else {
			b.pool.reclaim(in)
		}
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("serve: inference failed: %v", r)
		}
	}()
	if bf.Delay > 0 {
		time.Sleep(bf.Delay)
	}
	if bf.Err != nil {
		return nil, bf.Err
	}
	return net.Forward(in, opts, trace), nil
}

// traceTotals sums the convolution windows and mispredicted
// (speculatively zeroed, truly positive) windows of one batch trace.
// Safe once the Forward that filled the trace has returned.
func traceTotals(trace *snapea.NetTrace) (windows, mispredictions int64) {
	for _, tr := range trace.Layers {
		windows += tr.Windows
		mispredictions += tr.SpecFN
	}
	return windows, mispredictions
}

// latencyBoundsUS buckets microsecond latencies from 100µs to ~10s.
var latencyBoundsUS = []int64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000, 2500000, 5000000, 10000000}
