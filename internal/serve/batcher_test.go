package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"snapea/internal/models"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// testNet compiles TinyNet in exact mode for batcher-level tests.
func testNet(t *testing.T) (*snapea.Network, tensor.Shape) {
	t.Helper()
	m, err := models.Build("tinynet", models.Options{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	return snapea.CompileExact(m), m.InputShape
}

func testInput(pool *tensorPool, shape tensor.Shape, seed uint64) *tensor.Tensor {
	in := pool.Get(shape)
	tensor.FillNorm(in, tensor.NewRNG(seed), 0, 1)
	return in
}

func testRequest(ctx context.Context, pool *tensorPool, shape tensor.Shape, seed uint64) *request {
	return &request{ctx: ctx, input: testInput(pool, shape, seed), enq: time.Now(), resp: make(chan response, 1)}
}

// holdCtx is the context of a request that parks the dispatcher.
// runBatch asks each request of an assembled batch for ctx.Err(); this
// one announces the call and blocks in it until released.
type holdCtx struct {
	context.Context
	entered, release chan struct{}
}

func (c *holdCtx) Err() error {
	close(c.entered)
	<-c.release
	return nil
}

// holdDispatcher parks b's dispatcher inside batch 0 and returns once it
// is there: the batch is assembled (it holds the parking request alone)
// and the dispatcher is off the queue, so whatever the test enqueues
// before calling release is queued together when the dispatcher comes
// back — the state a busy server is in after every Forward, reached
// without a sleep and without racing the dispatcher's wake-up. release
// frees the dispatcher and checks the parked request ran as a batch of 1.
func holdDispatcher(t *testing.T, b *batcher, pool *tensorPool, shape tensor.Shape) (release func()) {
	t.Helper()
	ctx := &holdCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
	hold := testRequest(ctx, pool, shape, 99)
	if err := b.enqueue(hold); err != nil {
		t.Fatal(err)
	}
	<-ctx.entered
	return func() {
		t.Helper()
		close(ctx.release)
		if resp := awaitResponse(t, hold); resp.err != nil || resp.batch != 1 {
			t.Fatalf("parked request: batch=%d err=%v, want a batch of 1", resp.batch, resp.err)
		}
	}
}

func awaitResponse(t *testing.T, req *request) response {
	t.Helper()
	select {
	case resp := <-req.resp:
		return resp
	case <-time.After(10 * time.Second):
		t.Fatal("request never answered")
		panic("unreachable")
	}
}

// TestLoneRequestRunsAtOnce is the property the dispatch policy exists
// for: a request that finds the batcher idle is answered alone, with
// BatchMax 64 and nothing else ever enqueued — a dispatcher that held it
// until company arrived would hang here.
func TestLoneRequestRunsAtOnce(t *testing.T) {
	net, shape := testNet(t)
	pool := newTensorPool()
	b := newBatcher(net, pool, batcherConfig{batchMax: 64, queueDepth: 64})
	defer b.close()

	req := testRequest(context.Background(), pool, shape, 1)
	if err := b.enqueue(req); err != nil {
		t.Fatal(err)
	}
	if resp := awaitResponse(t, req); resp.err != nil || resp.batch != 1 {
		t.Fatalf("lone request: batch=%d err=%v, want batch=1", resp.batch, resp.err)
	}
}

// TestPartialBatchFlushOnWait: requests that queued while the dispatcher
// was busy leave together as one batch, however far below BatchMax their
// number is. (The name dates from the timer that used to flush a partial
// batch; the test floor tracks it.)
func TestPartialBatchFlushOnWait(t *testing.T) {
	net, shape := testNet(t)
	pool := newTensorPool()
	b := newBatcher(net, pool, batcherConfig{batchMax: 64, queueDepth: 64})
	defer b.close()
	release := holdDispatcher(t, b, pool, shape)

	const n = 3
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = testRequest(context.Background(), pool, shape, uint64(i+1))
		if err := b.enqueue(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	release()
	for i, req := range reqs {
		resp := awaitResponse(t, req)
		if resp.err != nil {
			t.Fatalf("request %d: %v", i, resp.err)
		}
		if resp.batch != n {
			t.Fatalf("request %d ran in batch of %d, want %d", i, resp.batch, n)
		}
		if len(resp.logits) != 10 {
			t.Fatalf("request %d: %d logits", i, len(resp.logits))
		}
	}
}

// TestQueueOverflow: enqueues beyond QueueDepth while the dispatcher is
// busy running batches must fail fast with ErrQueueFull — never block,
// never drop silently.
func TestQueueOverflow(t *testing.T) {
	net, shape := testNet(t)
	pool := newTensorPool()
	// BatchMax 1: the dispatcher spends ≥ one Forward per queued item,
	// while an enqueue costs nanoseconds, so a tight admission loop
	// overfills the 4-slot queue within a handful of iterations.
	b := newBatcher(net, pool, batcherConfig{batchMax: 1, queueDepth: 4})
	defer b.close()

	accepted := []*request{}
	var rejected int
	for i := 0; i < 10000; i++ {
		req := testRequest(context.Background(), pool, shape, 9)
		if err := b.enqueue(req); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("want ErrQueueFull, got %v", err)
			}
			rejected++
			break
		}
		accepted = append(accepted, req)
	}
	if rejected == 0 {
		t.Fatal("queue never overflowed")
	}
	// Every accepted request must still complete once the batch flushes.
	b.close()
	for i, req := range accepted {
		select {
		case resp := <-req.resp:
			if resp.err != nil {
				t.Fatalf("accepted request %d: %v", i, resp.err)
			}
		default:
			t.Fatalf("accepted request %d got no response after close", i)
		}
	}
}

// TestQueuedDeadlineExpires: a request whose context is done by dispatch
// time gets context.DeadlineExceeded (the HTTP layer's 504) while the
// rest of its batch proceeds and reports the live batch size. The dead
// request is queued between two live ones behind a held dispatcher, so a
// live batch size of 2 shows all three left the FIFO queue as one batch.
func TestQueuedDeadlineExpires(t *testing.T) {
	net, shape := testNet(t)
	pool := newTensorPool()
	b := newBatcher(net, pool, batcherConfig{batchMax: 64, queueDepth: 64})
	defer b.close()
	release := holdDispatcher(t, b, pool, shape)

	deadCtx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := testRequest(deadCtx, pool, shape, 1)
	live := []*request{
		testRequest(context.Background(), pool, shape, 2),
		testRequest(context.Background(), pool, shape, 3),
	}
	for _, req := range []*request{live[0], dead, live[1]} {
		if err := b.enqueue(req); err != nil {
			t.Fatal(err)
		}
	}
	release()

	if resp := awaitResponse(t, dead); !errors.Is(resp.err, context.DeadlineExceeded) {
		t.Fatalf("dead request err = %v, want DeadlineExceeded", resp.err)
	}
	for i, req := range live {
		resp := awaitResponse(t, req)
		if resp.err != nil {
			t.Fatalf("live request %d: %v", i, resp.err)
		}
		if resp.batch != 2 {
			t.Fatalf("live request %d: batch size = %d, want 2 (both live requests, dead one dropped)", i, resp.batch)
		}
	}
}

// TestCloseDrainsAccepted: close must answer exactly the accepted
// requests — every enqueue that returned nil gets a response, and
// post-close enqueues are refused.
func TestCloseDrainsAccepted(t *testing.T) {
	net, shape := testNet(t)
	pool := newTensorPool()
	b := newBatcher(net, pool, batcherConfig{batchMax: 4, queueDepth: 32})

	const n = 17
	var accepted []*request
	for i := 0; i < n; i++ {
		req := testRequest(context.Background(), pool, shape, uint64(i+1))
		if err := b.enqueue(req); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		accepted = append(accepted, req)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.close()
	}()
	for i, req := range accepted {
		select {
		case resp := <-req.resp:
			if resp.err != nil {
				t.Fatalf("accepted request %d: %v", i, resp.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("accepted request %d lost in shutdown", i)
		}
	}
	wg.Wait()

	late := testRequest(context.Background(), pool, shape, 99)
	if err := b.enqueue(late); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close enqueue err = %v, want ErrShuttingDown", err)
	}
}

// TestBatchMaxFlush: a batch stops at BatchMax however many requests are
// queued, and the surplus runs next — three queued behind a held
// dispatcher with BatchMax 2 leave as 2 + 1.
func TestBatchMaxFlush(t *testing.T) {
	net, shape := testNet(t)
	pool := newTensorPool()
	b := newBatcher(net, pool, batcherConfig{batchMax: 2, queueDepth: 64})
	defer b.close()
	release := holdDispatcher(t, b, pool, shape)

	reqs := make([]*request, 3)
	for i := range reqs {
		reqs[i] = testRequest(context.Background(), pool, shape, uint64(i+1))
		if err := b.enqueue(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	release()
	for i, want := range []int{2, 2, 1} {
		if resp := awaitResponse(t, reqs[i]); resp.err != nil || resp.batch != want {
			t.Fatalf("request %d: batch=%d err=%v, want batch=%d", i, resp.batch, resp.err, want)
		}
	}
}
