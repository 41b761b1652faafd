// Package parallel is the repository's deterministic worker-pool layer.
// Every hot path — the dense convolutions, the SnaPEA engine's
// per-kernel sweep, Algorithm 1's profiling and evaluation loops, and
// the experiment suite's network×mode grid — fans its independent work
// units through this package instead of spawning raw goroutines.
//
// The contract that keeps the reproduction trustworthy: results must be
// byte-identical for every worker count, including 1. The pool supports
// that by handing out work units by index and leaving all reductions to
// the caller, who must either write results into index-keyed slots
// (order-independent by construction) or merge per-worker shards of
// integer counters (associative, so any assignment of units to workers
// sums to the same value). Nothing in this package introduces an
// ordering dependency of its own.
//
// The pool is bounded process-wide: the default limit is GOMAXPROCS,
// overridable with the shared -workers tool flag (see internal/cli), the
// SNAPEA_WORKERS environment variable, or SetLimit. Nested For calls do
// not multiply goroutines — a global helper budget makes inner loops run
// inline on their caller once the process-wide worker count is reached,
// so an optimizer image fan-out over a layer fan-out still uses at most
// Limit() workers.
//
// Loops that can price themselves from their shape go through ForCost,
// which runs the small ones on the caller: starting a helper costs more
// than a short layer does.
package parallel

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// limit holds the configured worker bound; 0 means "use GOMAXPROCS".
var limit atomic.Int64

func init() {
	if v := os.Getenv("SNAPEA_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			SetLimit(n)
		}
	}
}

// Limit returns the process-wide maximum number of concurrent workers.
func Limit() int {
	if n := limit.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetLimit installs the process-wide worker bound; n <= 0 restores the
// GOMAXPROCS default. It is a startup/test knob: changing it while For
// calls are running is safe for memory but the new value only applies to
// loops entered afterwards.
func SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	limit.Store(int64(n))
}

// Workers returns the number of workers a For over n items may use:
// min(Limit, n), and at least 1. Callers allocating per-worker scratch
// (buffers, trace shards) size their slices with it; For guarantees the
// worker indices it passes to fn stay below this value for the same
// Limit.
func Workers(n int) int {
	w := Limit()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// inflight counts helper goroutines alive across all For calls. It is
// the global budget that keeps nested loops from multiplying workers:
// a For may only spawn helpers while the process-wide count is below
// Limit()-1 (the caller's own goroutine is always a worker), and falls
// back to running inline otherwise — which can never deadlock, because
// no worker ever blocks waiting for a budget token.
var inflight atomic.Int64

// acquireHelpers reserves up to want helper slots and returns how many
// were granted.
func acquireHelpers(want int) int {
	for {
		cur := inflight.Load()
		free := int64(Limit()) - 1 - cur
		if free <= 0 {
			return 0
		}
		grant := int64(want)
		if grant > free {
			grant = free
		}
		if inflight.CompareAndSwap(cur, cur+grant) {
			return int(grant)
		}
	}
}

func releaseHelper() { inflight.Add(-1) }

// For runs fn(worker, i) for every i in [0, n) across up to Limit()
// workers. Work units are handed out dynamically (an atomic cursor), so
// unevenly priced units — e.g. kernels whose windows terminate early —
// balance across workers; callers must therefore not depend on which
// worker ran which unit, only on the unit index. worker identifies the
// executing worker (0 is the caller) and stays below Workers(n); it
// exists solely to let fn reuse per-worker scratch. A panic in fn is
// re-raised on the caller after all workers stop.
func For(n int, fn func(worker, i int)) {
	forCtx(nil, n, fn)
}

// ForCtx is For with cooperative cancellation: once ctx is done, workers
// stop picking up new units, the remaining units are skipped, and the
// context's error is returned. Callers must treat any partially written
// results as garbage when an error comes back — exactly the PR 1
// contract for cancelled pipeline stages.
func ForCtx(ctx context.Context, n int, fn func(worker, i int)) error {
	return forCtx(ctx, n, fn)
}

// job is one fanned-out loop's shared state: one heap object per
// fan-out, however many helpers join it.
type job struct {
	ctx     context.Context
	n       int
	fn      func(worker, i int)
	cursor  atomic.Int64
	stopped atomic.Bool
	wg      sync.WaitGroup
	panicMu sync.Mutex
	panicV  any
}

// work drains the cursor as the given worker; the first panic stops
// every worker and is kept for the caller.
func (j *job) work(worker int) {
	defer func() {
		if r := recover(); r != nil {
			j.panicMu.Lock()
			if j.panicV == nil {
				j.panicV = r
			}
			j.panicMu.Unlock()
			j.stopped.Store(true)
		}
	}()
	for !j.stopped.Load() && ctxErr(j.ctx) == nil {
		i := int(j.cursor.Add(1) - 1)
		if i >= j.n {
			return
		}
		j.fn(worker, i)
	}
}

func (j *job) help(worker int) {
	defer j.wg.Done()
	defer releaseHelper()
	j.work(worker)
}

func forCtx(ctx context.Context, n int, fn func(worker, i int)) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	want := Workers(n)
	helpers := 0
	if want > 1 {
		helpers = acquireHelpers(want - 1)
	}
	if helpers == 0 {
		for i := 0; i < n; i++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	j := &job{ctx: ctx, n: n, fn: fn}
	j.wg.Add(helpers)
	for h := 1; h <= helpers; h++ {
		go j.help(h)
	}
	j.work(0)
	j.wg.Wait()
	if j.panicV != nil {
		panic(j.panicV)
	}
	return ctxErr(ctx)
}

// InlineSteps is the work below which a loop is cheaper run on its
// caller than fanned out, in steps of one dense multiply-accumulate
// (0.7–1 ns). Waking a helper costs the caller ~10 µs and the helper
// starts taking units tens of microseconds later, so a loop has to be
// several times that long before a second core repays it. On the
// two-core reference host no GoogLeNet or SqueezeNet layer priced at
// ≤ 1.8e5 steps ran more than 3 µs faster fanned, and from 1.9e5 up
// fanning won on all but three (DESIGN.md "Parallel execution and
// determinism" has the table).
const InlineSteps = 180_000

// WorkersCost is Workers for a ForCost loop: 1 when the loop runs
// inline, Workers(n) otherwise.
func WorkersCost(n, stepsPerItem int) int {
	if n*stepsPerItem < InlineSteps {
		return 1
	}
	return Workers(n)
}

// ForCost is For for loops that know their price: n items of
// stepsPerItem steps each run inline on the caller, as worker 0 and in
// index order, when the whole loop is under InlineSteps, and through
// For otherwise. Callers compute the steps from the loop's shape alone
// (dense MACs, outputs × window, inputs × outputs) — never from data or
// from the worker limit — so whether a loop fans out is a property of
// the layer, and results cannot depend on it any more than on the worker
// count.
//
// The loop's operands travel in ctx, handed back to fn by value on every
// call, so that fn can be a plain function or a method expression: an
// inline loop then allocates nothing, where a closure over the operands
// would be built on the heap before the rule had been asked.
func ForCost[T any](n, stepsPerItem int, ctx T, fn func(ctx T, worker, i int)) {
	if WorkersCost(n, stepsPerItem) == 1 {
		for i := 0; i < n; i++ {
			fn(ctx, 0, i)
		}
		return
	}
	// The closure escapes into For; it captures a copy made on this
	// branch so that the parameter itself stays on the stack.
	c := ctx
	For(n, func(worker, i int) { fn(c, worker, i) })
}

// Map runs fn for every index and collects the results in index order —
// the simplest ordered reduction.
func Map[T any](n int, fn func(worker, i int) T) []T {
	out := make([]T, n)
	For(n, func(w, i int) { out[i] = fn(w, i) })
	return out
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
