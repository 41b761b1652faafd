package serve

import (
	"sync"
	"sync/atomic"

	"snapea/internal/metrics"
	"snapea/internal/tensor"
)

// tensorPool recycles tensors of known shapes across requests — the
// serving analogue of Conv2D.ForwardGEMM's pooled im2col scratch. The
// hot path allocates one input tensor per request; at a few thousand
// requests per second that churn dominates the garbage collector's
// work, so it comes from here. Callers must
// fully overwrite a pooled tensor (the pool does not zero) and must not
// retain a reference after Put.
type tensorPool struct {
	mu    sync.Mutex
	pools map[tensor.Shape]*sync.Pool

	// Leak accounting for tensors stranded inside abandoned forward
	// goroutines (see gate.execute): leaked is the current count,
	// leaks and reclaims the lifetime totals. The pool re-allocates
	// around a leak on the next Get, so a leak costs one tensor of
	// memory until the wedged forward finishes (or forever, if it never
	// does) — these counters make that cost observable.
	leaked   atomic.Int64
	leaks    atomic.Int64
	reclaims atomic.Int64
}

func newTensorPool() *tensorPool {
	return &tensorPool{pools: make(map[tensor.Shape]*sync.Pool)}
}

// Get returns a tensor of the given shape, reusing a pooled one when
// available. Contents are undefined.
func (p *tensorPool) Get(s tensor.Shape) *tensor.Tensor {
	p.mu.Lock()
	sp, ok := p.pools[s]
	if !ok {
		sp = &sync.Pool{}
		p.pools[s] = sp
	}
	p.mu.Unlock()
	if v := sp.Get(); v != nil {
		if metrics.Enabled() {
			metrics.RC("serve.tensor_pool.hits", nil).Add(1)
		}
		return v.(*tensor.Tensor)
	}
	if metrics.Enabled() {
		metrics.RC("serve.tensor_pool.misses", nil).Add(1)
	}
	return tensor.New(s)
}

// noteLeak records a tensor stranded by a watchdog-abandoned forward: its
// goroutine still holds it, so it cannot be pooled or reused.
func (p *tensorPool) noteLeak() {
	p.leaks.Add(1)
	cur := p.leaked.Add(1)
	if metrics.Enabled() {
		metrics.RC("serve.tensor_pool.leaks", nil).Add(1)
		metrics.RG("serve.tensor_pool.leaked", nil).Set(cur)
	}
}

// reclaim records a stranded tensor whose abandoned forward eventually
// finished. The tensor is released to the garbage collector, not
// re-pooled: the pool already allocated a replacement while the forward
// was wedged, and re-admitting every late zombie would grow the pool
// without bound under repeated watchdog abandons — the re-allocation
// stays bounded at one live tensor per outstanding leak.
func (p *tensorPool) reclaim(t *tensor.Tensor) {
	_ = t
	p.reclaims.Add(1)
	cur := p.leaked.Add(-1)
	if metrics.Enabled() {
		metrics.RC("serve.tensor_pool.reclaimed", nil).Add(1)
		metrics.RG("serve.tensor_pool.leaked", nil).Set(cur)
	}
}

// Put returns a tensor to the pool for its shape.
func (p *tensorPool) Put(t *tensor.Tensor) {
	if t == nil {
		return
	}
	p.mu.Lock()
	sp, ok := p.pools[t.Shape()]
	if !ok {
		sp = &sync.Pool{}
		p.pools[t.Shape()] = sp
	}
	p.mu.Unlock()
	sp.Put(t)
}
