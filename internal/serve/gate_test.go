package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snapea/internal/metrics"
	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// testNet compiles TinyNet in exact mode for gate-level tests.
func testNet(t *testing.T) (*snapea.Network, tensor.Shape) {
	t.Helper()
	m, err := models.Build("tinynet", models.Options{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	return snapea.CompileExact(m), m.InputShape
}

func testInput(shape tensor.Shape, seed uint64) *tensor.Tensor {
	in := tensor.New(shape)
	tensor.FillNorm(in, tensor.NewRNG(seed), 0, 1)
	return in
}

// holdLayer is a graph layer that parks every forward through it until
// the test lets it go: a forward announces itself on entered once it is
// inside, then waits for release. inside and peak count the forwards
// parked now and at most.
type holdLayer struct {
	entered      chan struct{}
	release      chan struct{}
	releaseOnce  sync.Once
	inside, peak atomic.Int64
}

func (h *holdLayer) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	n := h.inside.Add(1)
	for p := h.peak.Load(); n > p && !h.peak.CompareAndSwap(p, n); p = h.peak.Load() {
	}
	h.entered <- struct{}{}
	<-h.release
	h.inside.Add(-1)
	return tensor.New(h.OutShape([]tensor.Shape{ins[0].Shape()}))
}

func (h *holdLayer) OutShape(ins []tensor.Shape) tensor.Shape {
	return tensor.Shape{N: ins[0].N, C: 10, H: 1, W: 1}
}

// releaseAll lets every parked and future forward through.
func (h *holdLayer) releaseAll() { h.releaseOnce.Do(func() { close(h.release) }) }

// awaitEntered blocks until n more forwards are parked inside h.
func (h *holdLayer) awaitEntered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-h.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d forwards reached the hold", i, n)
		}
	}
}

// holdNet compiles a one-layer network around a fresh holdLayer that
// takes TinyNet-shaped input, so a test can park forwards at a known
// point instead of racing them with sleeps. The hold is released when
// the test ends, so a failing test cannot wedge the cleanup drain.
func holdNet(t *testing.T) (*snapea.Network, *holdLayer) {
	t.Helper()
	m, err := models.Build("tinynet", models.Options{Seed: 1, SkipInit: true})
	if err != nil {
		t.Fatal(err)
	}
	// entered is buffered beyond any test's request count, so a forward
	// never blocks announcing itself.
	h := &holdLayer{entered: make(chan struct{}, 256), release: make(chan struct{})}
	t.Cleanup(h.releaseAll)
	g := nn.NewGraph()
	g.Add("hold", h, nn.InputName)
	return snapea.CompileExact(&models.Model{Name: "hold", Graph: g, InputShape: m.InputShape}), h
}

// testGate returns a tinynet/exact entry around net with an open gate
// of queueDepth waiting places and an unsupervised health.
func testGate(net *snapea.Network, queueDepth int) *entry {
	e := newEntry(modelKey{Model: "tinynet", Mode: ModeExact})
	e.net = net
	e.openGate(queueDepth, state{}, time.Now)
	return e
}

// holdEntry installs a ready tinynet/exact registry entry whose forwards
// park in a holdLayer, for HTTP-level gate tests.
func holdEntry(t *testing.T, s *Server) (*entry, *holdLayer) {
	t.Helper()
	net, h := holdNet(t)
	e := testGate(net, s.cfg.QueueDepth)
	key := e.key
	e.inShape, e.classes = net.Model.InputShape, 10
	close(e.ready)
	s.reg.mu.Lock()
	s.reg.entries[key] = e
	s.reg.mu.Unlock()
	return e, h
}

// awaitWaiting blocks until exactly n requests hold waiting places.
func awaitWaiting(t *testing.T, g *entry, n int) {
	t.Helper()
	awaitTrue(t, 10*time.Second, "requests to take their waiting places", func() bool { return len(g.waiting) == n })
}

// runAsync starts n requests through g and returns their answers once
// all have one.
func runAsync(g *entry, shape tensor.Shape, n int) func() []response {
	out := make([]response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = g.run(context.Background(), testInput(shape, uint64(i+1)))
		}(i)
	}
	return func() []response { wg.Wait(); return out }
}

func requireOK(t *testing.T, rs []response) {
	t.Helper()
	for i, r := range rs {
		if r.err != nil || len(r.logits) != 10 {
			t.Fatalf("request %d: err=%v, %d logits", i, r.err, len(r.logits))
		}
	}
}

// TestLoneRequestRunsAtOnce: a request that finds the gate idle is
// answered with its own forward, and its queue wait is the slot hand-off
// alone.
func TestLoneRequestRunsAtOnce(t *testing.T) {
	net, shape := testNet(t)
	g := testGate(net, 64)
	defer g.retire()

	r := g.run(context.Background(), testInput(shape, 1))
	requireOK(t, []response{r})
	if r.queueWait > time.Second {
		t.Fatalf("idle gate made a lone request wait %v", r.queueWait)
	}
}

// TestGateBoundsInFlight: however many requests arrive at once, never
// more than GOMAXPROCS forwards of one model run together; the rest wait
// for a slot and all are answered.
func TestGateBoundsInFlight(t *testing.T) {
	net, h := holdNet(t)
	g := testGate(net, 64)
	defer func() { h.releaseAll(); g.retire() }() // release first: retire waits for held forwards
	slots := runtime.GOMAXPROCS(0)
	n := 2*slots + 1

	answers := runAsync(g, net.Model.InputShape, n)
	h.awaitEntered(t, slots)
	awaitWaiting(t, g, n-slots)
	select {
	case <-h.entered:
		t.Fatalf("a forward started beyond the %d run slots", slots)
	default:
	}
	h.releaseAll()
	requireOK(t, answers())
	if got := h.peak.Load(); got != int64(slots) {
		t.Fatalf("peak forwards in flight = %d, want %d (GOMAXPROCS)", got, slots)
	}
}

// TestQueueOverflow: with every run slot busy and QueueDepth requests
// waiting, the next request is refused at once with ErrQueueFull —
// never blocked, never dropped silently — and the admitted ones are all
// answered.
func TestQueueOverflow(t *testing.T) {
	net, h := holdNet(t)
	const depth = 2
	g := testGate(net, depth)
	defer func() { h.releaseAll(); g.retire() }() // release first: retire waits for held forwards
	slots := runtime.GOMAXPROCS(0)
	shape := net.Model.InputShape

	answers := runAsync(g, shape, slots+depth)
	h.awaitEntered(t, slots)
	awaitWaiting(t, g, depth)
	if r := g.run(context.Background(), testInput(shape, 99)); !errors.Is(r.err, ErrQueueFull) {
		t.Fatalf("request past a full queue: err = %v, want ErrQueueFull", r.err)
	}
	h.releaseAll()
	requireOK(t, answers())
}

// TestQueuedDeadlineExpires: a request whose deadline passes while it
// waits for a slot gets context.DeadlineExceeded (the HTTP layer's 504),
// gives its waiting place back, counts in serve.queue_timeouts, and
// leaves the running forwards alone.
func TestQueuedDeadlineExpires(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	defer metrics.Disable()
	defer metrics.Reset()

	net, h := holdNet(t)
	g := testGate(net, 4)
	defer func() { h.releaseAll(); g.retire() }() // release first: retire waits for held forwards
	slots := runtime.GOMAXPROCS(0)
	shape := net.Model.InputShape

	answers := runAsync(g, shape, slots)
	h.awaitEntered(t, slots)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if r := g.run(ctx, testInput(shape, 99)); !errors.Is(r.err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter: err = %v, want DeadlineExceeded", r.err)
	}
	if n := len(g.waiting); n != 0 {
		t.Fatalf("%d waiting places still taken after the waiter left", n)
	}
	if got := runtimeCounter("serve.queue_timeouts"); got != 1 {
		t.Fatalf("serve.queue_timeouts = %d, want 1", got)
	}
	h.releaseAll()
	requireOK(t, answers())
}

// TestCloseDrainsAccepted: close refuses new requests with
// ErrShuttingDown but returns only once every admitted request — running
// or still waiting for a slot — has its answer.
func TestCloseDrainsAccepted(t *testing.T) {
	net, h := holdNet(t)
	const depth = 3
	g := testGate(net, depth)
	slots := runtime.GOMAXPROCS(0)
	shape := net.Model.InputShape

	answers := runAsync(g, shape, slots+depth)
	h.awaitEntered(t, slots)
	awaitWaiting(t, g, depth)
	closed := make(chan struct{})
	go func() {
		g.retire()
		close(closed)
	}()
	// Every slot and waiting place is taken, so admission answers
	// ErrQueueFull until close flips it to ErrShuttingDown; it never
	// admits.
	awaitTrue(t, 10*time.Second, "close to stop admission", func() bool {
		_, err := g.admit()
		return errors.Is(err, ErrShuttingDown)
	})
	select {
	case <-closed:
		t.Fatal("close returned while admitted requests were unanswered")
	default:
	}
	h.releaseAll()
	requireOK(t, answers())
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("close did not return after every admitted request was answered")
	}
}

// runtimeCounter sums a runtime counter across its label sets.
func runtimeCounter(name string) int64 {
	var n int64
	if rt := metrics.Export(true).Runtime; rt != nil {
		for _, p := range rt.Counters {
			if p.Name == name {
				n += p.Value
			}
		}
	}
	return n
}

// runtimeGauge sums a runtime gauge across its label sets.
func runtimeGauge(name string) int64 {
	var n int64
	if rt := metrics.Export(true).Runtime; rt != nil {
		for _, g := range rt.Gauges {
			if g.Name == name {
				n += g.Value
			}
		}
	}
	return n
}
