package cluster

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// quantileTracker keeps a sliding window of recent successful-request
// latencies and answers "what is the p-th percentile right now" — the
// hedge trigger. A ring buffer of the last trackerWindow samples is
// deliberately crude: the hedge delay only needs to sit near the tail
// knee, not be statistically exact, and a fixed window forgets old
// traffic regimes (cold compile, a degraded replica) at a bounded rate.
//
// For the same reason the answer is cached: every gateway request asks,
// and sorting the window for each one was 8 % of the gateway's CPU to
// move the hedge delay by a sample's worth. Quantile re-sorts only once
// quantileRefresh observations have arrived since it last did.
type quantileTracker struct {
	mu      sync.Mutex
	samples []time.Duration
	idx     int
	scratch []time.Duration

	// The cached answer: valid for cachedP while stale < quantileRefresh.
	cached  time.Duration
	cachedP float64
	stale   int // observations since cached was computed
}

const trackerWindow = 512

// quantileRefresh is how many observations a cached quantile may lag
// behind: 1/16 of the window.
const quantileRefresh = 32

// minHedgeSamples gates hedging until the tracker has seen enough
// traffic to estimate a quantile at all; before that the configured
// floor delay applies.
const minHedgeSamples = 16

func newQuantileTracker() *quantileTracker {
	return &quantileTracker{samples: make([]time.Duration, 0, trackerWindow), stale: quantileRefresh}
}

// Observe records one latency sample.
func (q *quantileTracker) Observe(d time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.stale++
	if len(q.samples) < trackerWindow {
		q.samples = append(q.samples, d)
		return
	}
	q.samples[q.idx] = d
	q.idx = (q.idx + 1) % trackerWindow
}

// Quantile returns the p-th (0..1) percentile of the window as of at
// most quantileRefresh observations ago, or 0 when fewer than
// minHedgeSamples have been observed.
func (q *quantileTracker) Quantile(p float64) time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.samples)
	if n < minHedgeSamples {
		return 0
	}
	if q.stale < quantileRefresh && p == q.cachedP {
		return q.cached
	}
	q.scratch = append(q.scratch[:0], q.samples...)
	slices.Sort(q.scratch)
	i := int(p * float64(n))
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	q.cached, q.cachedP, q.stale = q.scratch[i], p, 0
	return q.cached
}

// hedgeBudget caps request amplification: hedges fired may never exceed
// budget × requests seen. The check-then-fire is monotone-safe — both
// counters only grow, and the fired counter is bumped before the hedge
// launches — so the post-run ratio fired/requests ≤ budget holds no
// matter how the checks interleave.
type hedgeBudget struct {
	budget float64
	reqs   atomic.Int64
	fired  atomic.Int64
}

// request counts one incoming request toward the denominator.
func (hb *hedgeBudget) request() { hb.reqs.Add(1) }

// tryFire claims one hedge if the budget allows, returning whether the
// caller may hedge. Claims are made with a CAS-free optimistic add and
// rolled back on overshoot, which under contention can only under-fire,
// never overspend.
func (hb *hedgeBudget) tryFire() bool {
	if hb.budget <= 0 {
		return false
	}
	fired := hb.fired.Add(1)
	if float64(fired) > hb.budget*float64(hb.reqs.Load()) {
		hb.fired.Add(-1)
		return false
	}
	return true
}
