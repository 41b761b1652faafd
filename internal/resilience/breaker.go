// Package resilience is the serving stack's supervision layer: a
// circuit breaker that converts repeated batch failures into fast
// rejections with a recovery probe cycle, and an accuracy guardrail
// that watches the engine's misprediction counters and degrades a model
// from predictive to exact execution when the observed error rate
// exceeds its budget.
//
// Both components are deliberately mechanism-only: they know nothing
// about HTTP, batching, or metrics. The serving layer feeds them
// batch-level outcomes and reads their state; transition callbacks let
// the owner export state changes however it likes. Every method is safe
// on a nil receiver (the disabled configuration), so call sites carry
// no enablement branches.
package resilience

import (
	"errors"
	"sync"
	"time"
)

// State is a circuit breaker's position. The integer values are part of
// the metrics contract (serve.breaker_state exports them): 0 closed,
// 1 open, 2 half-open.
type State int32

const (
	// Closed admits all traffic; consecutive failures are counted.
	Closed State = 0
	// Open rejects all traffic until the open interval elapses.
	Open State = 1
	// HalfOpen admits probe traffic; successes close the breaker,
	// any failure reopens it.
	HalfOpen State = 2
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// ErrOpen is returned by Breaker.Allow while the circuit is open.
// Callers should fail fast (the serving layer answers 503 with a
// Retry-After derived from Allow's remaining-open duration).
var ErrOpen = errors.New("resilience: circuit open")

// BreakerConfig parameterizes a Breaker.
type BreakerConfig struct {
	// Failures is the number of consecutive recorded failures that
	// opens the breaker (default 5).
	Failures int
	// OpenFor is how long the breaker stays open before admitting
	// half-open probes (default 2s).
	OpenFor time.Duration
	// Probes is the number of consecutive half-open successes that
	// close the breaker again (default 2).
	Probes int
	// Now is the clock, injectable for tests (default time.Now).
	Now func() time.Time
	// OnTransition, when non-nil, is called after every state change,
	// outside the breaker's lock. Callbacks must not call back into the
	// breaker synchronously in a way that assumes unchanged state.
	OnTransition func(from, to State)
}

func (c BreakerConfig) normalize() BreakerConfig {
	if c.Failures <= 0 {
		c.Failures = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 2 * time.Second
	}
	if c.Probes <= 0 {
		c.Probes = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a per-execution-unit circuit breaker. The serving layer
// keeps one per (model, mode) and records outcomes at *batch*
// granularity: one batch execution is one success or one failure, no
// matter how many requests rode in it, so a single poisoned batch of
// 64 requests costs one failure count, not 64. The cluster gateway
// keeps one per replica and records per-proxied-request outcomes.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	fails    int       // consecutive failures while closed
	probes   int       // consecutive successes while half-open
	probing  bool      // a half-open probe is in flight (admitted, not yet recorded)
	probeAt  time.Time // when the in-flight probe was admitted
	openedAt time.Time
}

// NewBreaker returns a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.normalize()}
}

// Allow reports whether a request may proceed. While open it returns
// ErrOpen and the time remaining until half-open probes are admitted
// (the Retry-After hint). The open→half-open transition happens lazily
// here, on the first Allow after the open interval elapsed.
//
// Half-open admits exactly one probe at a time: the first Allow wins
// the probe slot, and every later Allow fast-rejects with ErrOpen until
// the probe's outcome is recorded. Without this gate a recovering
// backend takes the full concurrent request rush the instant the open
// interval elapses — the thundering-herd retry pattern half-open exists
// to prevent. Losers get a zero retryAfter hint: the probe outcome is
// one request away, so "immediately, briefly" is the honest answer.
func (b *Breaker) Allow() (retryAfter time.Duration, err error) {
	if b == nil {
		return 0, nil
	}
	b.mu.Lock()
	var trans func()
	switch b.state {
	case Open:
		remaining := b.cfg.OpenFor - b.cfg.Now().Sub(b.openedAt)
		if remaining > 0 {
			b.mu.Unlock()
			return remaining, ErrOpen
		}
		trans = b.transition(HalfOpen)
		b.probing, b.probeAt = true, b.cfg.Now() // this caller is the first probe
	case HalfOpen:
		// An outcome that is never recorded (the probe's request was
		// dropped before execution) must not wedge the slot forever: after
		// OpenFor the slot is forfeit and the next Allow takes it over.
		if b.probing && b.cfg.Now().Sub(b.probeAt) <= b.cfg.OpenFor {
			b.mu.Unlock()
			return 0, ErrOpen
		}
		b.probing, b.probeAt = true, b.cfg.Now()
	}
	b.mu.Unlock()
	if trans != nil {
		trans()
	}
	return 0, nil
}

// Record reports one batch outcome. A nil err is a success; anything
// else is a failure. Consecutive failures open a closed breaker; in
// half-open, any failure reopens and Probes consecutive successes
// close.
func (b *Breaker) Record(err error) {
	if b == nil {
		return
	}
	b.mu.Lock()
	var trans func()
	switch b.state {
	case Closed:
		if err == nil {
			b.fails = 0
		} else if b.fails++; b.fails >= b.cfg.Failures {
			trans = b.transition(Open)
		}
	case HalfOpen:
		// Whatever the outcome, this record frees the probe slot the
		// admitted probe was holding.
		b.probing = false
		if err != nil {
			trans = b.transition(Open)
		} else if b.probes++; b.probes >= b.cfg.Probes {
			trans = b.transition(Closed)
		}
	case Open:
		// A batch admitted before the breaker opened may finish now;
		// its outcome is stale, ignore it.
	}
	b.mu.Unlock()
	if trans != nil {
		trans()
	}
}

// State returns the breaker's current position (Closed on nil).
func (b *Breaker) State() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// transition moves to the new state and returns the callback to invoke
// after the lock is released. Callers must hold b.mu.
func (b *Breaker) transition(to State) func() {
	from := b.state
	b.state = to
	b.fails, b.probes, b.probing = 0, 0, false
	if to == Open {
		b.openedAt = b.cfg.Now()
	}
	if b.cfg.OnTransition == nil || from == to {
		return nil
	}
	cb := b.cfg.OnTransition
	return func() { cb(from, to) }
}
