package cluster

import (
	"testing"
	"time"
)

func TestQuantileTrackerWarmupGate(t *testing.T) {
	q := newQuantileTracker()
	for i := 0; i < minHedgeSamples-1; i++ {
		q.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := q.Quantile(0.95); got != 0 {
		t.Fatalf("quantile before warmup = %v, want 0", got)
	}
	q.Observe(time.Millisecond)
	if got := q.Quantile(0.95); got == 0 {
		t.Fatalf("quantile after %d samples = 0, want > 0", minHedgeSamples)
	}
}

func TestQuantileTrackerPercentiles(t *testing.T) {
	q := newQuantileTracker()
	// 1ms..100ms, uniform.
	for i := 1; i <= 100; i++ {
		q.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := q.Quantile(0.5); got < 45*time.Millisecond || got > 55*time.Millisecond {
		t.Fatalf("p50 = %v, want ~50ms", got)
	}
	if got := q.Quantile(0.95); got < 90*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("p95 = %v, want ~95ms", got)
	}
	if got := q.Quantile(1.0); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
}

func TestQuantileTrackerWindowForgets(t *testing.T) {
	q := newQuantileTracker()
	for i := 0; i < trackerWindow; i++ {
		q.Observe(time.Second) // old slow regime
	}
	for i := 0; i < trackerWindow; i++ {
		q.Observe(time.Millisecond) // new fast regime
	}
	if got := q.Quantile(0.99); got != time.Millisecond {
		t.Fatalf("p99 after regime change = %v, want 1ms (window should have forgotten the slow regime)", got)
	}
}

// TestQuantileTrackerCache: an answer is reused for fewer than
// quantileRefresh observations, refreshed by the quantileRefresh-th, and
// never served for a different p.
func TestQuantileTrackerCache(t *testing.T) {
	q := newQuantileTracker()
	for i := 0; i < 100; i++ {
		q.Observe(time.Millisecond)
	}
	if got := q.Quantile(1.0); got != time.Millisecond {
		t.Fatalf("max = %v, want 1ms", got)
	}
	for i := 1; i < quantileRefresh; i++ {
		q.Observe(time.Second)
	}
	if got := q.Quantile(1.0); got != time.Millisecond {
		t.Fatalf("max after %d observations = %v, want the cached 1ms", quantileRefresh-1, got)
	}
	if got := q.Quantile(0.0); got != time.Millisecond {
		t.Fatalf("min = %v, want 1ms", got)
	}
	if got := q.Quantile(1.0); got != time.Second {
		t.Fatalf("max asked after min = %v, want 1s (an answer for another p must not be reused)", got)
	}
	q.Observe(time.Minute)
	if got := q.Quantile(1.0); got != time.Second {
		t.Fatalf("max one observation after a refresh = %v, want the cached 1s", got)
	}
	for i := 1; i < quantileRefresh; i++ {
		q.Observe(time.Minute)
	}
	if got := q.Quantile(1.0); got != time.Minute {
		t.Fatalf("max after %d observations = %v, want 1m0s (refreshed)", quantileRefresh, got)
	}
}

// BenchmarkHedgeDelay is the tracker's share of one gateway request over
// a full window: one hedgeDelay on the way in, one Observe on the way
// out.
func BenchmarkHedgeDelay(b *testing.B) {
	g := &Gateway{cfg: Config{}.normalize(), tracker: newQuantileTracker()}
	for i := 0; i < trackerWindow; i++ {
		g.tracker.Observe(time.Duration(i%97) * 10 * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.hedgeDelay(); !ok {
			b.Fatal("hedging disabled")
		}
		g.tracker.Observe(time.Duration(i%97) * 10 * time.Microsecond)
	}
}

func TestHedgeBudgetCapsAmplification(t *testing.T) {
	hb := &hedgeBudget{budget: 0.1}
	fired := 0
	for i := 0; i < 1000; i++ {
		hb.request()
		if hb.tryFire() {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("budget 0.1 over 1000 requests never admitted a hedge")
	}
	if max := int(0.1 * 1000); fired > max {
		t.Fatalf("fired %d hedges, budget allows at most %d", fired, max)
	}
	if got := hb.fired.Load(); got != int64(fired) {
		t.Fatalf("fired counter %d != admitted count %d (rollback accounting broken)", got, fired)
	}
}

func TestHedgeBudgetZeroDisables(t *testing.T) {
	hb := &hedgeBudget{budget: 0}
	hb.request()
	if hb.tryFire() {
		t.Fatal("zero budget admitted a hedge")
	}
}

func TestHedgeBudgetRefund(t *testing.T) {
	hb := &hedgeBudget{budget: 1.0}
	hb.request()
	if !hb.tryFire() {
		t.Fatal("budget 1.0 refused the first hedge")
	}
	hb.refund()
	if got := hb.fired.Load(); got != 0 {
		t.Fatalf("fired counter after refund = %d, want 0", got)
	}
}
